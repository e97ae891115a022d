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
		// Kinds that left the grammar with their analyzers are unknown names
		// like any other, and the message lists exactly the known ones.
		{raw: "//synclint:guardedby mu", wantErr: `unknown synclint directive "guardedby" (known: alloc, allocfree, ordered, seedok, wallclock)`},
		{raw: "//synclint:unguarded -- construction", wantErr: "unknown synclint directive"},
		{raw: "//synclint:checked -- best effort", wantErr: "unknown synclint directive"},
		{raw: "//synclint:zerokey -- zero means full run", wantErr: "unknown synclint directive"},

		// Escape hatches without a reason are rejected: the audit trail
		// is the point.
		{raw: "//synclint:ordered", wantErr: "requires a reason"},
		{raw: "//synclint:alloc", wantErr: "requires a reason"},
		{raw: "//synclint:wallclock", wantErr: "requires a reason"},
		{raw: "//synclint:seedok", wantErr: "requires a reason"},
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
		{Name: "wallclock", Reason: "telemetry -- printed to stderr"},
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
	counts := map[string]int{}
	ix.Count(counts)
	want := map[string]int{"allocfree": 1, "ordered": 1, "wallclock": 1}
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
		"//synclint:wallclock -- telemetry only",
		"//synclint:seedok -- audited stream",
		"//synclint:seedok",
		"//synclint:allocfree -- reason optional",
		"//synclint:alloc--no space",
		"//synclint:allocfree trailing words",
		"//synclint:allocfree -- ",
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
		// Canonical form must re-parse to the same directive.
		d2, ok2, err2 := ParseDirective(d.String())
		if err2 != nil || !ok2 || d2 != d {
			t.Fatalf("round trip failed: %q -> %+v -> %q -> %+v (ok=%v err=%v)", raw, d, d.String(), d2, ok2, err2)
		}
	})
}
