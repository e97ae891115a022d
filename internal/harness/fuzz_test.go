package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hclocksync/internal/clocksync"
)

// fuzzResult is the typed result FuzzCacheGet and FuzzLedgerLoad decode
// into: an omitempty field a partial decode could leave set, a string and a
// slice.
type fuzzResult struct {
	A    int       `json:"a,omitempty"`
	B    string    `json:"b"`
	Rows []float64 `json:"rows"`
}

// trustedResult is what Get trusts in the entry file raw of key: its result,
// if the envelope decodes, names key and its checksum covers the result.
func trustedResult(raw []byte, key string) (json.RawMessage, bool) {
	var e entry
	if json.Unmarshal(raw, &e) != nil || e.Key != key {
		return nil, false
	}
	sum := sha256.Sum256(e.Result)
	return e.Result, hex.EncodeToString(sum[:]) == e.Checksum
}

// FuzzCacheGet reads arbitrary bytes as the entry file of a key. Get must
// not panic; it reports a hit only for an entry that carries the key and
// whose checksum covers the result, and then decodes that result whole; on
// a miss it leaves its destination untouched; and it quarantines exactly
// the entries it cannot trust.
func FuzzCacheGet(f *testing.F) {
	key := strings.Repeat("ab", 32)
	seed := OpenCache(f.TempDir())
	seed.Put(key, "v", "suite", "task", 7, map[string]int{"n": 3}, map[string]any{"mean": 1.5, "rows": []int{1, 2}})
	valid, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"key":"ab`), []byte(`"key":"cd`), 1))
	f.Add(bytes.Replace(valid, []byte(`"checksum":"`), []byte(`"checksum":"0`), 1))
	f.Add(bytes.Replace(valid, []byte(`1.5`), []byte(`2.5`), 1))
	f.Add([]byte{})
	f.Add([]byte("null"))
	f.Add([]byte(`{"key":"` + key + `","checksum":"","result":null}`))

	c := OpenCache(f.TempDir())
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		os.Remove(path + ".corrupt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		sentinel := fuzzResult{A: -1, B: "untouched", Rows: []float64{-1}}
		out := fuzzResult{A: -1, B: "untouched", Rows: []float64{-1}}
		hit := c.Get(key, &out)

		result, trusted := trustedResult(raw, key)
		var want fuzzResult
		decodes := trusted && json.Unmarshal(result, &want) == nil
		switch {
		case hit && !decodes:
			t.Fatalf("hit on an entry whose key, checksum or result does not hold: %q", raw)
		case hit && !reflect.DeepEqual(out, want):
			t.Fatalf("Get = %+v, want %+v", out, want)
		case !hit && decodes:
			t.Fatalf("Get missed a trusted, decodable entry %q", raw)
		case !hit && !reflect.DeepEqual(out, sentinel):
			t.Fatalf("a missed Get changed its destination to %+v", out)
		}
		if _, err := os.Stat(path + ".corrupt"); trusted == (err == nil) {
			t.Fatalf("trusted entry %v, quarantined %v", trusted, err == nil)
		}
	})
}

// FuzzLedgerLoad records a fuzzed result for a one-task sweep under a fuzzed
// task name in a sweep ledger, optionally flips one byte of the ledger entry
// or cuts bytes off its end, and resumes the sweep from that ledger. The
// resume must not fail. It serves the stored result whole, without running
// the task, exactly when the entry is trusted and its result decodes into
// the task's result type; otherwise it reruns the task, quarantines an
// untrusted entry and records the fresh result, which a second resume then
// serves.
func FuzzLedgerLoad(f *testing.F) {
	const version, suite = "fuzz-v", "fuzz"
	seed := DeriveSeed(suite, taskName("", 0), 1)
	// record writes result under name into the ledger at dir and returns the
	// entry's path and key; an invalid JSON result writes no entry.
	record := func(tb testing.TB, dir, name string, result []byte) (string, string) {
		name = taskName(name, 0)
		key, err := CacheKey(version, suite, name, seed, nil)
		if err != nil {
			tb.Fatal(err)
		}
		ck := NewCheckpointer(dir, 1, version)
		ck.Record(suite, name, key, json.RawMessage(result))
		return ck.cache.path(key), key
	}
	// The damage seeds' byte positions, found in the entry they damage:
	// the opening brace, the key, the version (which no checksum covers),
	// the checksum and the result.
	path, _ := record(f, f.TempDir(), "k", []byte(`{"a":1}`))
	small, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	at := func(field string) uint16 { return uint16(bytes.Index(small, []byte(field)) + len(field) + 1) }

	f.Add("k", []byte(`{"a":1,"b":"x","rows":[1.5]}`), uint16(0), byte(0), uint16(0))
	f.Add("k", []byte(`{"a":5,"b":7}`), uint16(0), byte(0), uint16(0))
	f.Add("k", []byte(`{"b":"x"`), uint16(0), byte(0), uint16(0))
	f.Add("", []byte(nil), uint16(0), byte(0), uint16(0))
	f.Add("k", []byte(`null`), uint16(0), byte(0), uint16(0))
	f.Add("k", []byte(`{"a":1}`), uint16(0), byte(0x40), uint16(0))
	f.Add("k", []byte(`{"a":1}`), at(`"key":`), byte(0x01), uint16(0))
	f.Add("k", []byte(`{"a":1}`), at(`"version":`), byte(0x20), uint16(0))
	f.Add("k", []byte(`{"a":1}`), at(`"checksum":`), byte(0x01), uint16(0))
	f.Add("k", []byte(`{"a":1}`), at(`"result":`), byte(0x01), uint16(0))
	f.Add("k", []byte(`{"a":1}`), uint16(0), byte(0), uint16(1))
	f.Add("k", []byte(`{"a":1}`), uint16(0), byte(0), uint16(40))

	f.Fuzz(func(t *testing.T, name string, result []byte, pos uint16, flip byte, cut uint16) {
		dir := t.TempDir()
		path, key := record(t, dir, name, result)
		raw, err := os.ReadFile(path)
		stored := err == nil
		if stored && (flip != 0 || cut != 0) {
			if flip != 0 {
				raw[int(pos)%len(raw)] ^= flip
			}
			if cut != 0 {
				raw = raw[:len(raw)-1-int(cut)%len(raw)]
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		res, trusted := trustedResult(raw, key)
		trusted = stored && trusted
		var want fuzzResult
		served := trusted && json.Unmarshal(res, &want) == nil

		computed := fuzzResult{A: 7, B: "computed", Rows: []float64{7}}
		resume := func() (fuzzResult, int, *Manifest) {
			ran := 0
			tasks := []Task[fuzzResult]{{Name: name, Run: func(int64) (fuzzResult, error) {
				ran++
				return computed, nil
			}}}
			eng := New(Options{Jobs: 1, Version: version, Checkpoint: NewCheckpointer(dir, 1, version)})
			got, err := Run(eng, suite, 1, tasks)
			if err != nil {
				t.Fatalf("resume from the ledger failed: %v", err)
			}
			return got[0], ran, eng.Manifests()[0]
		}
		got, ran, m := resume()
		switch {
		case served && (ran != 0 || m.CheckpointHits != 1 || !reflect.DeepEqual(got, want)):
			t.Fatalf("trusted, decodable entry %q: ran %d, %d checkpoint hits, result %+v; want 0, 1, %+v", raw, ran, m.CheckpointHits, got, want)
		case !served && (ran != 1 || m.CheckpointHits != 0 || !reflect.DeepEqual(got, computed)):
			t.Fatalf("entry %q (stored %v, trusted %v): ran %d, %d checkpoint hits, result %+v; want 1, 0, %+v", raw, stored, trusted, ran, m.CheckpointHits, got, computed)
		}
		if _, err := os.Stat(path + ".corrupt"); (stored && !trusted) != (err == nil) {
			t.Fatalf("entry stored %v, trusted %v, quarantined %v", stored, trusted, err == nil)
		}
		again, ran, m := resume()
		if ran != 0 || m.CheckpointHits != 1 || !reflect.DeepEqual(again, got) {
			t.Fatalf("second resume: ran %d, %d checkpoint hits, result %+v; want 0, 1, %+v", ran, m.CheckpointHits, again, got)
		}
	})
}

// fuzzCfg is FuzzCacheKey's config: one field of each kind an experiment
// config holds, an interface among them.
type fuzzCfg struct {
	F    float64
	S    string
	Ints []int
	M    map[string]float64
	Alg  clocksync.Algorithm
}

// newFuzzCfg builds a config from fuzz inputs: b feeds Ints and M (whose
// values f/(x%8) reach ±Inf and NaN), alg's low bit picks HCA2 or HCA3 and its
// other bits the fit-point count.
func newFuzzCfg(f float64, s string, b []byte, alg uint8) fuzzCfg {
	c := fuzzCfg{F: f, S: s, Ints: []int{}, M: map[string]float64{}}
	for _, x := range b {
		c.Ints = append(c.Ints, int(x)-128)
		c.M[string(rune('a'+x%4))] = f / float64(x%8)
	}
	p := clocksync.Params{NFitpoints: int(alg >> 1), Offset: clocksync.SKaMPIOffset{NExchanges: 5}}
	c.Alg = clocksync.HCA2{Params: p}
	if alg&1 == 1 {
		c.Alg = clocksync.HCA3{Params: p}
	}
	return c
}

// sameFloat compares by bits, with every NaN one value.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzCacheKey: two configs share a key exactly when they are equal —
// floats compared by bits, every NaN one value.
func FuzzCacheKey(f *testing.F) {
	f.Add(1.5, 1.5, "x", "x", []byte{1, 2}, []byte{1, 2}, uint8(20), uint8(20))
	f.Add(1.5, 1.5, "x", "x", []byte{1, 2}, []byte{1, 2}, uint8(20), uint8(21))
	f.Add(0.0, math.Copysign(0, -1), "", "", []byte{}, []byte{}, uint8(0), uint8(0))
	f.Add(math.NaN(), math.NaN(), "a", "a", []byte{0, 8}, []byte{0, 8}, uint8(3), uint8(3))
	f.Add(1.0, 1.0, "a\"b", "a\\b", []byte{4}, []byte{5}, uint8(7), uint8(7))
	f.Add(1.0, 1.0, "\xff", "\ufffd", []byte{1, 9}, []byte{9, 1}, uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, f1, f2 float64, s1, s2 string, b1, b2 []byte, alg1, alg2 uint8) {
		c1, c2 := newFuzzCfg(f1, s1, b1, alg1), newFuzzCfg(f2, s2, b2, alg2)
		equal := sameFloat(c1.F, c2.F) && c1.S == c2.S && slices.Equal(c1.Ints, c2.Ints) &&
			maps.EqualFunc(c1.M, c2.M, sameFloat) && reflect.DeepEqual(c1.Alg, c2.Alg)
		k1, err := CacheKey("v", "suite", "task", 1, c1)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := CacheKey("v", "suite", "task", 1, c2)
		if err != nil {
			t.Fatal(err)
		}
		if (k1 == k2) != equal {
			t.Fatalf("configs equal %v but keys equal %v:\n%#v\n%#v", equal, k1 == k2, c1, c2)
		}
	})
}
