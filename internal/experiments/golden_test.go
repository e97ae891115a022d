package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hclocksync/internal/harness"
)

// The simulation kernel and MPI layer carry an observable determinism
// contract: for a fixed seed, an experiment's rendered output is a fixed
// byte sequence, at any -jobs setting and any GOMAXPROCS. The hashes in
// testdata/golden_hashes.json pin every suite runexp lists against silent
// drift: any change to the (t, seq) tie-break, an RNG draw order, or message
// matching shows up here as a hash mismatch. The fig3/fig7 hashes have held
// since checkpointing landed (recorded then under the keys fig3cut/fig7cut),
// through every kernel rewrite since.
//
// Regenerate (only when an output change is intended and understood) with:
//
//	go test ./internal/experiments -run TestGoldenOutputs -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_hashes.json from the current build")

// goldenVariants are extra pins of a Suites() row under non-default
// options. fig3, fig6 and fig9 are pinned at a second seed: a different seed
// draws different delays, so other (t, seq) orders between ranks are
// reached. (There is no checkpointing variant: a phased simulation takes the
// same schedule with or without a ledger, so the plain hash pins both.)
var goldenVariants = []struct {
	key, row string
	opts     Options
}{
	{"fig3seed7", "fig3", Options{Seed: 7}},
	{"fig6seed7", "fig6", Options{Seed: 7}},
	{"fig9seed7", "fig9", Options{Seed: 7}},
}

type goldenSuite struct {
	name   string
	render func(eng *harness.Engine) (string, error)
}

// goldenSuites derives the pinned set from Suites(): every row at its tiny
// scale (what runexp -scale tiny runs), then the variants.
func goldenSuites(t *testing.T) []goldenSuite {
	pin := func(key string, s Suite, o Options) goldenSuite {
		return goldenSuite{key, func(eng *harness.Engine) (string, error) {
			o.Scale = ScaleTiny
			res, err := s.Run(eng, o)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			res.Print(&b)
			return b.String(), nil
		}}
	}
	rows := map[string]Suite{}
	var out []goldenSuite
	for _, s := range Suites() {
		rows[s.Name] = s
		out = append(out, pin(s.Name, s, Options{}))
	}
	for _, v := range goldenVariants {
		s, ok := rows[v.row]
		if !ok {
			t.Fatalf("golden variant %s names no Suites() row %q", v.key, v.row)
		}
		out = append(out, pin(v.key, s, v.opts))
	}
	return out
}

const goldenPath = "testdata/golden_hashes.json"

func TestGoldenOutputs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	got := map[string]string{}
	for _, s := range goldenSuites(t) {
		// Every (jobs, GOMAXPROCS) combination must produce one identical
		// byte stream; record the suite under a single key.
		var ref string
		for _, c := range []struct{ jobs, procs int }{{1, 1}, {1, 8}, {8, 1}, {8, 8}} {
			runtime.GOMAXPROCS(c.procs)
			out, err := s.render(harness.New(harness.Options{Jobs: c.jobs}))
			if err != nil {
				t.Fatalf("%s at jobs=%d GOMAXPROCS=%d: %v", s.name, c.jobs, c.procs, err)
			}
			if ref == "" {
				ref = out
			} else if out != ref {
				t.Errorf("%s: output at jobs=%d GOMAXPROCS=%d differs from jobs=1 GOMAXPROCS=1", s.name, c.jobs, c.procs)
			}
		}
		sum := sha256.Sum256([]byte(ref))
		got[s.name] = hex.EncodeToString(sum[:])
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("{\n")
		for i, n := range names {
			comma := ","
			if i == len(names)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "  %q: %q%s\n", n, got[n], comma)
		}
		b.WriteString("}\n")
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden hashes (run with -update-golden to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	for name := range want {
		if got[name] == "" {
			t.Errorf("%s: golden hash names no Suites() row or variant", name)
		}
	}
	for name, h := range got {
		if want[name] == "" {
			t.Errorf("%s: no golden hash recorded (run with -update-golden)", name)
			continue
		}
		if h != want[name] {
			t.Errorf("%s: output hash %s != golden %s — the kernel's observable determinism contract drifted", name, h, want[name])
		}
	}
}
