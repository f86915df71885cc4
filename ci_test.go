package mobispatial

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsSelectTests: every alternative of every `go test <pkg> -run
// '…'` pattern in the CI workflow (and of every -bench and -fuzz pattern)
// names at least one function of that package, so deleting or renaming a
// test cannot quietly hollow out a CI step that selects it by name.
func TestCIPatternsSelectTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	sels := ciSelections(string(ci))
	if len(sels) == 0 {
		t.Fatal("no `go test … -run` selection found in ci.yml")
	}
	for _, miss := range unselected(t, sels) {
		t.Error(miss)
	}
}

// TestCIPatternCheckCatchesInventedName: the check above can fail — an
// alternative naming no function is reported, beside one that names a test,
// one that selects nothing on purpose and a subtest path.
func TestCIPatternCheckCatchesInventedName(t *testing.T) {
	ci := "      - run: |\n" +
		"          # go test ./internal/mutable -run 'InAComment'\n" +
		"          go test ./internal/mutable -run 'TestUpdateSoak|TestNoSuchInventedTest|TestScanAgainstPingPongMover/static' -race -count=2\n" +
		"          go test ./internal/... -run='^$' -bench 'Nearest|NoSuchInventedBench' -benchtime=1x\n"
	misses := unselected(t, ciSelections(ci))
	if len(misses) != 2 || !strings.Contains(misses[0], "TestNoSuchInventedTest") || !strings.Contains(misses[1], "NoSuchInventedBench") {
		t.Fatalf("misses = %q, want one for TestNoSuchInventedTest and one for NoSuchInventedBench", misses)
	}
}

// ciSelection is one name pattern of one `go test` command in a workflow.
type ciSelection struct {
	line    int      // 1-based line in the workflow
	pkgs    []string // the command's package arguments
	flag    string   // run, bench or fuzz
	pattern string
}

// ciSelections reads every -run, -bench and -fuzz pattern of every `go test`
// command in a workflow's text, skipping YAML comments.
func ciSelections(ci string) []ciSelection {
	var out []ciSelection
	for n, line := range strings.Split(ci, "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		args := shellFields(line[i+len("go test "):])
		var pkgs []string
		var sels []ciSelection
		for j := 0; j < len(args); j++ {
			if strings.HasPrefix(args[j], "./") {
				pkgs = append(pkgs, args[j])
				continue
			}
			name, val, hasVal := strings.Cut(strings.TrimLeft(args[j], "-"), "=")
			if !strings.HasPrefix(args[j], "-") || (name != "run" && name != "bench" && name != "fuzz") {
				continue
			}
			if !hasVal && j+1 < len(args) {
				j++
				val = args[j]
			}
			sels = append(sels, ciSelection{line: n + 1, flag: name, pattern: val})
		}
		for _, s := range sels {
			s.pkgs = pkgs
			out = append(out, s)
		}
	}
	return out
}

// shellFields splits a command line at blanks, keeping single-quoted text
// whole and dropping the quotes.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	quoted, inField := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inField = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if inField {
				out = append(out, cur.String())
				cur.Reset()
			}
			inField = false
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// topLevelSplit splits a pattern at sep outside brackets and parentheses,
// the way `go test` splits -run at '/' and a regexp alternates at '|'.
func topLevelSplit(pat string, sep rune) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range pat {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, pat[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pat[start:])
}

// testFuncRE finds a test file's top-level test, benchmark, fuzz and example
// functions.
var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)

// testFuncs returns the test, benchmark, fuzz and example functions of the
// packages a `go test` package argument names ("./dir" or "./dir/...").
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}

// selects reports whether a pattern of -flag can select a function called
// name: -run selects tests, fuzz targets and examples, -bench benchmarks,
// -fuzz fuzz targets.
func selects(flag, name string) bool {
	switch flag {
	case "bench":
		return strings.HasPrefix(name, "Benchmark")
	case "fuzz":
		return strings.HasPrefix(name, "Fuzz")
	default:
		return !strings.HasPrefix(name, "Benchmark")
	}
}

// unselected returns one message per pattern alternative that names no
// function its flag can select in the command's packages. An alternative
// that matches the empty string ('^$') selects nothing on purpose; only a
// -run pattern's first path element names a top-level function.
func unselected(t *testing.T, sels []ciSelection) []string {
	t.Helper()
	var misses []string
	for _, s := range sels {
		var names []string
		for _, pkg := range s.pkgs {
			names = append(names, testFuncs(t, pkg)...)
		}
		top := s.pattern
		if s.flag == "run" {
			top = topLevelSplit(top, '/')[0]
		}
		for _, alt := range topLevelSplit(top, '|') {
			re, err := regexp.Compile(alt)
			if err != nil {
				misses = append(misses, fmt.Sprintf("ci.yml:%d: -%s alternative %q: %v", s.line, s.flag, alt, err))
				continue
			}
			if re.MatchString("") {
				continue
			}
			found := false
			for _, name := range names {
				if selects(s.flag, name) && re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				misses = append(misses, fmt.Sprintf("ci.yml:%d: -%s alternative %q names no function in %s",
					s.line, s.flag, alt, strings.Join(s.pkgs, " ")))
			}
		}
	}
	return misses
}
