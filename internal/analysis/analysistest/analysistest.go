// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations written in the fixtures, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture lives at testdata/src/<pkg>/ relative to the test. Every
// line that must trigger a diagnostic carries a trailing comment
//
//	// want "substring"
//	// want `regexp` "second regexp"
//
// Each diagnostic reported on a line must match one of the line's want
// patterns, and each pattern must be matched at least once; anything
// unmatched in either direction fails the test. Double-quoted patterns
// are unquoted as Go strings, backquoted patterns are taken verbatim,
// and both are compiled as regular expressions.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hclocksync/internal/analysis"
)

// Run loads testdata/src/<pkg> relative to the calling test's directory,
// applies the analyzer, and checks its diagnostics against the fixture's
// want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	loaded := LoadFixture(t, pkg)
	diags, err := analysis.Run(loaded, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, loaded.Fset, loaded.Files)
	for _, d := range diags {
		key := posKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			// Allow one pattern to match several diagnostics on its line
			// (e.g. a make and its map write reported together).
			for _, w := range wants[key] {
				if w.used && w.re.MatchString(d.Message) {
					matched = true
					break
				}
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, w.re)
			}
		}
	}
}

// LoadFixture parses and type-checks testdata/src/<pkg> relative to the
// calling test's directory, for tests that drive an analyzer directly.
// The fixture's stdlib imports are read from their compiled export data,
// which the gc importer finds by itself.
func LoadFixture(t *testing.T, pkg string) *analysis.Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	imp := importer.ForCompiler(fset, "gc", nil)
	typesPkg, info, err := analysis.Check(fset, imp, pkg, files)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", pkg, err)
	}
	return &analysis.Package{
		PkgPath: pkg, Dir: dir, Fset: fset, Files: files, Types: typesPkg, Info: info,
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[posKey][]*want {
	t.Helper()
	wants := map[posKey][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := posKey{filepath.Base(pos.Filename), pos.Line}
				for _, pat := range splitPatterns(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}

// splitPatterns parses a want payload: a space-separated sequence of
// double-quoted Go strings or backquoted raw strings.
func splitPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				t.Fatalf("%s: unterminated want pattern %q", pos, s)
			}
			pat, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", pos, s[:end+1], err)
			}
			pats = append(pats, pat)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern %q", pos, s)
			}
			pats = append(pats, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s: want pattern must be quoted or backquoted, got %q", pos, s)
		}
	}
	return pats
}
