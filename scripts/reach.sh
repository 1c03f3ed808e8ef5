#!/usr/bin/env bash
# reach.sh — fail when a non-test function in mpa/... is in no program.
#
# Builds every binary (cmd/*, examples/* and the perfbench module) with
# inlining off (-gcflags=all=-l), so that every function a program
# calls keeps its own text symbol, and lists those symbols with
# `go tool nm`. Every top-level func in a gofmt'd non-test file of the
# mpa module (perfbench/ excluded) must be one of them:
#
#   - a library function `func F` is pkgpath.F, a method
#     `func (r *T) M` is pkgpath.(*T).M, `func (r T) M` is pkgpath.T.M;
#   - type parameters are dropped on both sides, so a generic function
#     counts as reached when any instantiation is in a binary;
#   - a function of a main package must be in that package's binary.
#
# Blind spot: a method of a generic type. Once a binary instantiates the
# type, the linker keeps the instantiation's method wrappers whether or
# not anything calls them, so an uncalled method reads as reached. The
# check cannot tell, and fails on every method declared on a generic
# type instead, unless the allowlist names it with a reason.
#
# Exceptions live in scripts/reach-allow.txt, one per line: the symbol
# as this script prints it, then the reason it is kept. An entry whose
# function no longer exists, or is now reached (methods of generic
# types aside), or has no reason, fails the check too, so the list
# cannot go stale. `init` functions are not checked.
#
# Usage: scripts/reach.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=scripts/reach-allow.txt
TMP="$(mktemp -d)" # binaries and symbol lists; removed on exit
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/bin"

# Binaries are named after their import path, / spelled as +.
for dir in cmd/* examples/*; do
  go build -gcflags=all=-l -o "$TMP/bin/mpa+${dir//\//+}" "./$dir"
done
(cd perfbench && go build -gcflags=all=-l -o "$TMP/bin/mpa+perfbench" .)

# Reached: every text symbol, type parameters stripped innermost bracket
# first, with a main package's `main.` spelled as its import path. A
# pointer wrapper (*T).M reaches the value method T.M too: the compiler
# may fold T.M into the wrapper that an interface call goes through.
for bin in "$TMP"/bin/*; do
  pkg="$(basename "$bin")"
  pkg="${pkg//+//}"
  go tool nm "$bin" |
    sed -nE 's/^ *[0-9a-f]+ [Tt] //p' |
    sed -E ':a; s/\[[^][]*\]//g; ta' |
    sed "s#^main\\.#$pkg.#" |
    sed -nE 'p; s/^([^(]*)\(\*([A-Za-z0-9_]+)\)\./\1\2./p'
done | sort -u > "$TMP/reached"

# Declared: every ^func line of a non-test file, receiver type
# parameters dropped.
find . -path ./perfbench -prune -o -path '*/testdata' -prune -o \
  -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print |
  sort | while read -r file; do
    dir="$(dirname "${file#./}")"
    pkg="mpa"
    [ "$dir" = . ] || pkg="mpa/$dir"
    sed -nE -e '/^func init\(/d' \
      -e 's/^func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/(*\2).\4/p' \
      -e 's/^func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\2.\4/p' \
      -e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$file" |
      sed "s#^#$pkg.#"
  done | sort -u > "$TMP/declared"

# Methods of generic types: every ^func line whose receiver carries type
# parameters, named as above.
find . -path ./perfbench -prune -o -path '*/testdata' -prune -o \
  -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print |
  sort | while read -r file; do
    dir="$(dirname "${file#./}")"
    pkg="mpa"
    [ "$dir" = . ] || pkg="mpa/$dir"
    sed -nE \
      -e 's/^func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)\[[^]]*\]\) ([A-Za-z0-9_]+).*/(*\2).\3/p' \
      -e 's/^func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)\[[^]]*\]\) ([A-Za-z0-9_]+).*/\2.\3/p' "$file" |
      sed "s#^#$pkg.#"
  done | sort -u > "$TMP/generic"

grep -vE '^[[:space:]]*(#|$)' "$ALLOW" | sort > "$TMP/allow-lines" || true
awk '{ print $1 }' "$TMP/allow-lines" | sort -u > "$TMP/allowed"

fail=0
report() { # message, file of symbols
  if [ -s "$2" ]; then
    echo "reach: $1:" >&2
    sed 's/^/  /' "$2" >&2
    fail=1
  fi
}
comm -23 "$TMP/declared" "$TMP/reached" > "$TMP/unreached"
comm -23 "$TMP/unreached" "$TMP/allowed" > "$TMP/bad"
report "functions no binary reaches (delete them, or add a line to $ALLOW)" "$TMP/bad"
comm -23 "$TMP/generic" "$TMP/allowed" > "$TMP/bad"
report "methods of generic types, which no binary can show uncalled (make them functions, or add a line to $ALLOW)" "$TMP/bad"
comm -23 "$TMP/allowed" "$TMP/declared" > "$TMP/bad"
report "$ALLOW names functions that no longer exist" "$TMP/bad"
comm -12 "$TMP/allowed" "$TMP/reached" | comm -23 - "$TMP/generic" > "$TMP/bad"
report "$ALLOW names functions a binary now reaches" "$TMP/bad"
awk 'NF < 2 { print $1 }' "$TMP/allow-lines" > "$TMP/bad"
report "$ALLOW entries without a reason" "$TMP/bad"

echo "reach: $(wc -l < "$TMP/declared") functions, $(wc -l < "$TMP/allowed") allowed unreached" >&2
exit "$fail"
