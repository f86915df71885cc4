#!/usr/bin/env bash
# loc.sh — Go source size per package, the rule the size figures in
# ROADMAP.md and CHANGES.md use: non-blank lines that are not comments, in
# every .go file outside bench/ (a nested module with its own figures),
# split into test files (_test.go) and the rest.
#
# A comment line is one whose first non-blank characters are //, or one
# inside a /* */ block that starts a line; a line with code before a comment
# counts as code.
#
# Usage: bash scripts/loc.sh [DIR]   (DIR defaults to the repository root)
#
# Prints one row per package directory — non-test lines, test lines — then a
# total row.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' -not -path './bench/*' -not -path './.git/*' | sort | awk '
	{
		file = $0
		dir = file
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		if (!(dir in seen)) { seen[dir] = 1; dirs[++k] = dir }
		test = file ~ /_test\.go$/
		block = 0
		while ((getline line < file) > 0) {
			gsub(/^[ \t]+|[ \t]+$/, "", line)
			if (block) {
				if (!index(line, "*/")) continue
				block = 0
				line = substr(line, index(line, "*/") + 2)
				gsub(/^[ \t]+/, "", line)
			}
			if (line == "" || line ~ /^\/\//) continue
			if (line ~ /^\/\*/) {
				if (!index(substr(line, 3), "*/")) block = 1
				continue
			}
			if (test) t[dir]++; else n[dir]++
		}
		close(file)
	}
	END {
		printf "%-32s %9s %9s\n", "package", "non-test", "test"
		for (i = 1; i <= k; i++) {
			d = dirs[i]
			printf "%-32s %9d %9d\n", d, n[d], t[d]
			tn += n[d]
			tt += t[d]
		}
		printf "%-32s %9d %9d\n", "total", tn, tt
	}
'
