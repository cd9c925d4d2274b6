#!/bin/sh
# Prints every function declared in a non-test file under internal/ that
# no binary links and .github/scripts/reachable.allow does not list, and
# exits non-zero if it printed any. The binaries are the five commands
# and bench; inlining is off so that a function inlined at every call
# site still shows up as a symbol. Run from anywhere in the repository:
#
#	sh .github/scripts/reachable.sh
set -eu
cd "$(dirname "$0")/../.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for root in ./cmd/displaydaemon ./cmd/paperbench ./cmd/renderserver ./cmd/viewer ./cmd/volgen ./bench; do
	go build -gcflags='repro/...=-l' -o "$tmp/bin" "$root"
	go tool nm "$tmp/bin" | awk '$2 == "T" || $2 == "t" { print $3 }'
done | sed 's/(\*\([^)]*\))/\1/' | sort -u >"$tmp/linked"

find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	awk -v dir="$(dirname "$f")" '/^func / {
		line = substr($0, 6); recv = ""
		if (line ~ /^\(/) {
			n = split(substr(line, 2, index(line, ")") - 2), r, /[ *]+/)
			recv = r[n] "."; line = substr(line, index(line, ")") + 2)
		}
		sub(/[(\[].*/, "", line)
		if (line != "init") print "repro/" dir "." recv line
	}' "$f"
done | sort -u >"$tmp/declared"

sed 's/#.*//' .github/scripts/reachable.allow | awk 'NF { print $1 }' | sort -u >"$tmp/allowed"
comm -23 "$tmp/declared" "$tmp/linked" | comm -23 - "$tmp/allowed" >"$tmp/unreached"
cat "$tmp/unreached"
test ! -s "$tmp/unreached"
