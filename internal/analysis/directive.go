package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive grammar
//
// A synclint annotation is a line comment of the form
//
//	//synclint:<name>
//	//synclint:<name> -- <reason>
//
// with no space before the colon (matching the //go: convention so the
// directives survive gofmt untouched). <name> is one of the known directive
// names below; <reason> is free text explaining why the escape hatch is
// justified. Reasons are mandatory for the escape-hatch directives — an
// unaudited escape is exactly the silent rot the analyzers exist to stop.
//
// Placement: trailing on the guarded line, or alone on the line directly
// above it. The function-scope directive (allocfree) goes in the function's
// doc comment.

// Known directive names and which analyzers consume them.
const (
	// DirAllocfree marks a function whose body the allocfree analyzer
	// must prove free of heap-allocating constructs. Function scope.
	DirAllocfree = "allocfree"
	// DirAlloc permits one audited allocating statement inside an
	// allocfree function (pool warm-up, amortized growth, cold panic
	// paths). Requires a reason. Line scope.
	DirAlloc = "alloc"
	// DirOrdered marks a range over a map as audited order-insensitive
	// (or explicitly re-ordered afterwards). Requires a reason. Line scope.
	DirOrdered = "ordered"
	// DirWallclock permits an audited wall-clock read (telemetry that
	// never reaches results, manifest hashes, or seeds). Requires a
	// reason. Line scope.
	DirWallclock = "wallclock"
	// DirSeedok permits an audited RNG construction that does not flow
	// from harness.DeriveSeed. Requires a reason. Line scope.
	DirSeedok = "seedok"
)

// knownDirectives maps each directive name to whether a reason is
// mandatory.
var knownDirectives = map[string]bool{
	DirAllocfree: false,
	DirAlloc:     true,
	DirOrdered:   true,
	DirWallclock: true,
	DirSeedok:    true,
}

const directivePrefix = "//synclint:"

// Directive is one parsed //synclint: annotation.
type Directive struct {
	Name   string // e.g. "ordered"
	Reason string // text after " -- ", empty if none
}

// String renders the directive in canonical comment form; it is the
// inverse of ParseDirective for well-formed input.
func (d Directive) String() string {
	s := directivePrefix + d.Name
	if d.Reason != "" {
		s += " -- " + d.Reason
	}
	return s
}

// ParseDirective parses one comment's raw text (including the leading
// "//"). ok is false when the comment is not a synclint directive at all.
// err is non-nil when the comment claims to be one ("//synclint:" prefix,
// or a near-miss like "// synclint:") but is malformed — analyzers treat
// that as a diagnostic rather than silently ignoring a typo that would
// disable a check.
func ParseDirective(raw string) (d Directive, ok bool, err error) {
	if !strings.HasPrefix(raw, directivePrefix) {
		// Catch the near-misses a reviewer would read as a directive.
		trimmed := strings.TrimLeft(strings.TrimPrefix(raw, "//"), " \t")
		if strings.HasPrefix(trimmed, "synclint:") && strings.HasPrefix(raw, "//") {
			return Directive{}, false, fmt.Errorf("malformed synclint directive %q: must start exactly with %q (no spaces)", raw, directivePrefix)
		}
		return Directive{}, false, nil
	}
	rest := raw[len(directivePrefix):]
	name := rest
	tail := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, tail = rest[:i], strings.TrimLeft(rest[i:], " \t")
	}
	if name == "" {
		return Directive{}, false, fmt.Errorf("malformed synclint directive %q: missing name", raw)
	}
	for _, r := range name {
		if r < 'a' || r > 'z' {
			return Directive{}, false, fmt.Errorf("malformed synclint directive %q: name must be lowercase letters, got %q", raw, name)
		}
	}
	if _, known := knownDirectives[name]; !known {
		return Directive{}, false, fmt.Errorf("unknown synclint directive %q (known: %s)", name, strings.Join(knownNames(), ", "))
	}
	reason := ""
	if tail != "" {
		r, okSep := strings.CutPrefix(tail, "-- ")
		if !okSep {
			return Directive{}, false, fmt.Errorf("malformed synclint directive %q: reason must be separated by %q", raw, " -- ")
		}
		reason = strings.TrimSpace(r)
		if reason == "" {
			return Directive{}, false, fmt.Errorf("malformed synclint directive %q: empty reason after %q", raw, "--")
		}
	}
	if knownDirectives[name] && reason == "" {
		return Directive{}, false, fmt.Errorf("synclint directive %q requires a reason: //synclint:%s -- <why this is safe>", name, name)
	}
	return Directive{Name: name, Reason: reason}, true, nil
}

// knownNames lists the directive names in sorted order, for the
// unknown-name diagnostic.
func knownNames() []string {
	names := make([]string, 0, len(knownDirectives))
	for name := range knownDirectives {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DirIndex indexes the well-formed directives of one package's files by
// (file, line), plus the malformed ones for the directive analyzer to
// report. The file component matters: a package has many files and line
// numbers restart in each, so a line-only index would let a directive in
// one file silently cover the same-numbered line of a sibling file.
type DirIndex struct {
	byLine map[lineKey][]Directive
	bad    []badDirective
}

// lineKey addresses one physical source line.
type lineKey struct {
	file string
	line int
}

type badDirective struct {
	pos token.Pos
	err error
}

// IndexDirectives scans every comment of files.
func IndexDirectives(fset *token.FileSet, files []*ast.File) *DirIndex {
	ix := &DirIndex{byLine: map[lineKey][]Directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok, err := ParseDirective(c.Text)
				if err != nil {
					ix.bad = append(ix.bad, badDirective{pos: c.Pos(), err: err})
					continue
				}
				if ok {
					p := fset.Position(c.Pos())
					k := lineKey{file: p.Filename, line: p.Line}
					ix.byLine[k] = append(ix.byLine[k], d)
				}
			}
		}
	}
	return ix
}

// Allows reports whether a directive named name covers line of file:
// trailing on the line itself or alone on the line above.
func (ix *DirIndex) Allows(file string, line int, name string) bool {
	for _, d := range ix.byLine[lineKey{file, line}] {
		if d.Name == name {
			return true
		}
	}
	for _, d := range ix.byLine[lineKey{file, line - 1}] {
		if d.Name == name {
			return true
		}
	}
	return false
}

// Count tallies the well-formed directives of the index by name, for the
// escape-budget selfcheck.
func (ix *DirIndex) Count(into map[string]int) {
	for _, ds := range ix.byLine { //synclint:ordered -- accumulating counts into a map; order-insensitive
		for _, d := range ds {
			into[d.Name]++
		}
	}
}

// FuncDirective reports whether fn's doc comment carries the named
// directive.
func FuncDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if d, ok, _ := ParseDirective(c.Text); ok && d.Name == name {
			return true
		}
	}
	return false
}

// DirectiveAnalyzer reports malformed or unknown //synclint: comments.
// A typo in an escape hatch must fail the build, not silently widen it.
var DirectiveAnalyzer = &Analyzer{
	Name: "synclintdir",
	Doc:  "reject malformed, unknown, or reason-less //synclint: directives",
	Run: func(pass *Pass) error {
		for _, b := range pass.Dirs.bad {
			pass.Reportf(b.pos, "%v", b.err)
		}
		return nil
	},
}
