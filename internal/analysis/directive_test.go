package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		raw     string
		want    Directive
		ok      bool
		wantErr string // substring of the error, "" for no error
	}{
		{raw: "//synclint:allocfree", want: Directive{Name: "allocfree"}, ok: true},
		{raw: "//synclint:ordered -- keys sorted below", want: Directive{Name: "ordered", Reason: "keys sorted below"}, ok: true},
		{raw: "//synclint:wallclock -- telemetry only", want: Directive{Name: "wallclock", Reason: "telemetry only"}, ok: true},
		{raw: "//synclint:alloc -- pool warm-up", want: Directive{Name: "alloc", Reason: "pool warm-up"}, ok: true},
		{raw: "//synclint:seedok -- audited stream", want: Directive{Name: "seedok", Reason: "audited stream"}, ok: true},
		{raw: "//synclint:checked -- best effort", want: Directive{Name: "checked", Reason: "best effort"}, ok: true},
		{raw: "//synclint:unguarded -- construction", want: Directive{Name: "unguarded", Reason: "construction"}, ok: true},

		// Argument grammar (guardedby).
		{raw: "//synclint:guardedby failMu", want: Directive{Name: "guardedby", Arg: "failMu"}, ok: true},
		{raw: "//synclint:guardedby mu -- lease state", want: Directive{Name: "guardedby", Arg: "mu", Reason: "lease state"}, ok: true},

		// Not directives at all.
		{raw: "// ordinary comment"},
		{raw: "//go:noinline"},
		{raw: "// want \"something\""},

		// Malformed: near-miss spacing.
		{raw: "// synclint:ordered -- x", wantErr: "no spaces"},
		{raw: "//  synclint:allocfree", wantErr: "no spaces"},

		// Malformed: grammar violations.
		{raw: "//synclint:", wantErr: "missing name"},
		{raw: "//synclint:Ordered -- x", wantErr: "lowercase"},
		{raw: "//synclint:ordered keys sorted", wantErr: "separated by"},
		{raw: "//synclint:ordered -- ", wantErr: "empty reason"},
		{raw: "//synclint:ordered --", wantErr: "separated by"},
		{raw: "//synclint:bogus -- x", wantErr: "unknown synclint directive"},
		// The cache-key rule has no escape hatch any more: its two former
		// audits are unknown names like any other.
		{raw: "//synclint:execonly -- parallelism knob", wantErr: "unknown synclint directive"},
		{raw: "//synclint:zerokey -- zero means full run", wantErr: "unknown synclint directive"},

		// Escape hatches without a reason are rejected: the audit trail
		// is the point.
		{raw: "//synclint:ordered", wantErr: "requires a reason"},
		{raw: "//synclint:alloc", wantErr: "requires a reason"},
		{raw: "//synclint:wallclock", wantErr: "requires a reason"},
		{raw: "//synclint:seedok", wantErr: "requires a reason"},
		{raw: "//synclint:checked", wantErr: "requires a reason"},
		{raw: "//synclint:unguarded", wantErr: "requires a reason"},

		// Argument violations.
		{raw: "//synclint:guardedby", wantErr: "requires a field argument"},
		{raw: "//synclint:guardedby -- no arg", wantErr: "requires a field argument"},
		{raw: "//synclint:guardedby 2mu", wantErr: "must be a Go identifier"},
		{raw: "//synclint:guardedby p.mu", wantErr: "must be a Go identifier"},
		{raw: "//synclint:guardedby mu extra words", wantErr: "separated by"},
	}
	for _, tc := range cases {
		d, ok, err := ParseDirective(tc.raw)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseDirective(%q) err = %v, want containing %q", tc.raw, err, tc.wantErr)
			}
			if ok {
				t.Errorf("ParseDirective(%q) ok = true alongside error", tc.raw)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDirective(%q) unexpected error: %v", tc.raw, err)
			continue
		}
		if ok != tc.ok || d != tc.want {
			t.Errorf("ParseDirective(%q) = %+v, %v; want %+v, %v", tc.raw, d, ok, tc.want, tc.ok)
		}
	}
}

func TestDirectiveRoundTrip(t *testing.T) {
	for _, d := range []Directive{
		{Name: "allocfree"},
		{Name: "ordered", Reason: "keys sorted"},
		{Name: "guardedby", Arg: "failMu"},
		{Name: "guardedby", Arg: "mu", Reason: "lease state"},
	} {
		got, ok, err := ParseDirective(d.String())
		if err != nil || !ok || got != d {
			t.Errorf("round trip %+v -> %q -> %+v, ok=%v, err=%v", d, d.String(), got, ok, err)
		}
	}
}

const directiveSrc = `package p

//synclint:allocfree
func hot() {}

func body() {
	x := 1 //synclint:ordered -- trailing form
	//synclint:wallclock -- line-above form
	y := 2
	_ = x
	_ = y
	_ = x //synclint:guardedby failMu
}

//synclint:alloc
func missingReason() {}

//synclint:frobnicate -- not a thing
func unknown() {}
`

func TestIndexDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	// A second file in the same package: its lines must not inherit the
	// first file's directives just because the numbers coincide.
	g, err := parser.ParseFile(fset, "q.go", "package p\n\nfunc other() {}\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ix := IndexDirectives(fset, []*ast.File{f, g})
	// Trailing form covers its own line.
	if !ix.Allows("p.go", 7, "ordered") {
		t.Error("trailing directive on line 7 not found")
	}
	// Line-above form covers the next line.
	if !ix.Allows("p.go", 9, "wallclock") {
		t.Error("line-above directive did not cover line 9")
	}
	if ix.Allows("p.go", 9, "ordered") {
		t.Error("ordered directive leaked to line 9")
	}
	// Directives are file-scoped: the same line number in a sibling file
	// is not covered.
	if ix.Allows("q.go", 7, "ordered") || ix.Allows("q.go", 9, "wallclock") {
		t.Error("directive leaked across files to q.go")
	}
	// The two malformed directives are collected for synclintdir.
	if len(ix.bad) != 2 {
		t.Errorf("bad directives = %d, want 2", len(ix.bad))
	}
	// Find surfaces the full directive, not just presence.
	if d, ok := ix.Find("p.go", 7, "ordered"); !ok || d.Reason != "trailing form" {
		t.Errorf("Find(7, ordered) = %+v, %v", d, ok)
	}
	if d, ok := ix.Find("p.go", 12, "guardedby"); !ok || d.Arg != "failMu" {
		t.Errorf("Find(12, guardedby) = %+v, %v", d, ok)
	}
	if _, ok := ix.Find("p.go", 7, "wallclock"); ok {
		t.Error("Find leaked wallclock to line 7")
	}
	counts := map[string]int{}
	ix.Count(counts)
	want := map[string]int{"allocfree": 1, "ordered": 1, "wallclock": 1, "guardedby": 1}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("Count[%s] = %d, want %d", name, counts[name], n)
		}
	}
}

// FuzzParseDirective holds the parser to its contract on arbitrary
// comment text: never panic; at most one of (ok, err) set; accepted
// directives are known, carry a reason when one is mandatory, and
// round-trip through String.
func FuzzParseDirective(f *testing.F) {
	seeds := []string{
		"//synclint:allocfree",
		"//synclint:ordered -- keys collected then sorted",
		"//synclint:alloc -- pool warm-up",
		"// synclint:ordered -- near miss",
		"//synclint:",
		"//synclint:ordered --",
		"//synclint:ordered -- ",
		"//synclint:bogus -- x",
		"//synclint:ORDERED -- caps",
		"// plain comment",
		"//go:noinline",
		"//synclint:ordered\t--\treason with tabs",
		"//synclint:ordered -- reason -- with -- separators",
		"//synclint:unguarded -- construction",
		"//synclint:guardedby failMu",
		"//synclint:guardedby mu -- lease state",
		"//synclint:guardedby",
		"//synclint:guardedby 2mu",
		"//synclint:execonly -- parallelism knob",
		"//synclint:zerokey -- zero means full run",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		d, ok, err := ParseDirective(raw)
		if ok && err != nil {
			t.Fatalf("ParseDirective(%q): ok and err both set (err=%v)", raw, err)
		}
		if !ok {
			if d != (Directive{}) {
				t.Fatalf("ParseDirective(%q): !ok but non-zero directive %+v", raw, d)
			}
			return
		}
		needReason, known := knownDirectives[d.Name]
		if !known {
			t.Fatalf("ParseDirective(%q) accepted unknown name %q", raw, d.Name)
		}
		if needReason && d.Reason == "" {
			t.Fatalf("ParseDirective(%q) accepted %q without its mandatory reason", raw, d.Name)
		}
		if argDirectives[d.Name] {
			if !isIdent(d.Arg) {
				t.Fatalf("ParseDirective(%q) accepted %q with non-identifier arg %q", raw, d.Name, d.Arg)
			}
		} else if d.Arg != "" {
			t.Fatalf("ParseDirective(%q) attached arg %q to non-arg directive %q", raw, d.Arg, d.Name)
		}
		// Canonical form must re-parse to the same directive.
		d2, ok2, err2 := ParseDirective(d.String())
		if err2 != nil || !ok2 || d2 != d {
			t.Fatalf("round trip failed: %q -> %+v -> %q -> %+v (ok=%v err=%v)", raw, d, d.String(), d2, ok2, err2)
		}
	})
}
