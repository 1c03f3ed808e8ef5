package serve

import "bytes"

// appendIndent appends src, the compact output of json.Marshal, to dst
// indented exactly as json.Encoder with SetIndent("", "  ") indents it:
// two spaces per level, ": " after keys, and empty objects and arrays
// kept as {} and []. The caller appends the Encoder's trailing newline.
//
// It trusts src to be valid compact JSON, as Marshal guarantees, so it
// makes one pass without the byte-by-byte scanner json.Indent re-runs:
// a string's contents are copied in runs up to its next unescaped '"'.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	// needIndent delays the line break after '{' or '[' until the first
	// element, so that an empty object or array stays on one line.
	needIndent := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if needIndent && c != '}' && c != ']' {
			needIndent = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := closingQuote(src, i)
			dst = append(dst, src[i:end+1]...)
			i = end
		case '{', '[':
			needIndent = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if needIndent {
				needIndent = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// closingQuote returns the index of the '"' that closes the string
// opening at src[open]: the first one not escaped by an odd run of
// backslashes.
func closingQuote(src []byte, open int) int {
	i := open + 1
	for {
		i += bytes.IndexByte(src[i:], '"')
		n := 0
		for src[i-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return i
		}
		i++
	}
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
