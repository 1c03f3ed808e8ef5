// Package confdiff compares successive configuration snapshots of a device
// and produces typed changes (paper §2.2, operational practices O1–O3):
// if at least one stanza differs between two snapshots, a configuration
// change occurred; each added, removed, or updated stanza contributes a
// change of its vendor-agnostic stanza type.
package confdiff

import (
	"slices"
	"strings"

	"mpa/internal/confmodel"
)

// Kind classifies how a stanza changed between two snapshots.
type Kind int

// Change kinds.
const (
	KindAdd Kind = iota
	KindRemove
	KindUpdate
)

// String returns the change-kind name.
func (k Kind) String() string {
	switch k {
	case KindAdd:
		return "add"
	case KindRemove:
		return "remove"
	case KindUpdate:
		return "update"
	default:
		return "unknown"
	}
}

// StanzaChange is one changed stanza between two successive snapshots.
type StanzaChange struct {
	Type confmodel.Type // vendor-agnostic stanza type
	Name string
	Kind Kind
}

// Diff returns the stanza-level changes from old to new, sorted by type,
// name, then kind for determinism. A nil result means the configurations
// are identical (no configuration change occurred).
func Diff(oldCfg, newCfg *confmodel.Config) []StanzaChange {
	return AppendDiff(nil, oldCfg, newCfg)
}

// AppendDiff appends the stanza-level changes from old to new onto dst
// and returns the extended slice. It merge-walks the two configs'
// key-sorted stanza slices, so a diff allocates nothing beyond growing dst
// (no per-call maps). The appended region is sorted like Diff's result;
// entries already in dst are left untouched. Callers on the hot path pass
// dst[:0] of a reused buffer.
func AppendDiff(dst []StanzaChange, oldCfg, newCfg *confmodel.Config) []StanzaChange {
	base := len(dst)
	olds, news := oldCfg.Stanzas(), newCfg.Stanzas()
	i, j := 0, 0
	for i < len(olds) || j < len(news) {
		switch {
		case i >= len(olds):
			dst = append(dst, StanzaChange{news[j].Type, news[j].Name, KindAdd})
			j++
		case j >= len(news):
			dst = append(dst, StanzaChange{olds[i].Type, olds[i].Name, KindRemove})
			i++
		default:
			switch c := strings.Compare(olds[i].Key(), news[j].Key()); {
			case c < 0:
				dst = append(dst, StanzaChange{olds[i].Type, olds[i].Name, KindRemove})
				i++
			case c > 0:
				dst = append(dst, StanzaChange{news[j].Type, news[j].Name, KindAdd})
				j++
			default:
				// A stanza shared from the previous snapshot by the
				// dialect's ParseNext is the same object: no need to
				// compare its options.
				if olds[i] != news[j] && !olds[i].Equal(news[j]) {
					dst = append(dst, StanzaChange{news[j].Type, news[j].Name, KindUpdate})
				}
				i++
				j++
			}
		}
	}
	// The merge emits in key (type-string) order; the public order is by
	// Type's integer value, which differs (e.g. "acl" sorts before
	// "interface" but TypeInterface < TypeACL).
	out := dst[base:]
	slices.SortFunc(out, func(a, b StanzaChange) int {
		if a.Type != b.Type {
			return int(a.Type) - int(b.Type)
		}
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return int(a.Kind) - int(b.Kind)
	})
	return dst
}
