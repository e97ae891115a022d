package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hclocksync/internal/checkpoint"
	"hclocksync/internal/clocksync"
)

// FuzzCacheGet reads arbitrary bytes as the entry file of a key. Get must
// not panic; it reports a hit only for an entry that carries the key and
// whose checksum covers the result it decoded, and it quarantines an entry
// it cannot trust.
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
		var out any
		hit := c.Get(key, &out)

		var e entry
		trusted := json.Unmarshal(raw, &e) == nil && e.Key == key
		if trusted {
			sum := sha256.Sum256(e.Result)
			trusted = hex.EncodeToString(sum[:]) == e.Checksum
		}
		if hit && !trusted {
			t.Fatalf("hit on an entry whose key or checksum does not hold: %q", raw)
		}
		if _, err := os.Stat(path + ".corrupt"); trusted == (err == nil) {
			t.Fatalf("trusted entry %v, quarantined %v", trusted, err == nil)
		}
	})
}

// ledgerResult is FuzzLedgerLoad's typed result: an omitempty field a
// partial decode could leave set, a string and a slice.
type ledgerResult struct {
	A    int       `json:"a,omitempty"`
	B    string    `json:"b"`
	Rows []float64 `json:"rows"`
}

// FuzzLedgerLoad seals a sweep ledger holding one fuzzed result under a
// fuzzed key, optionally flips one byte of the container or cuts bytes off
// its end, and restores it. Load must not panic and must refuse a damaged
// container with one of internal/checkpoint's typed errors; Lookup into a
// typed result must either decode the stored JSON whole or leave its
// destination untouched.
func FuzzLedgerLoad(f *testing.F) {
	f.Add("k", []byte(`{"a":1,"b":"x","rows":[1.5]}`), uint16(0), byte(0), uint16(0))
	f.Add("k", []byte(`{"a":5,"b":7}`), uint16(0), byte(0), uint16(0))
	f.Add("k", []byte(`{"b":"x"`), uint16(0), byte(0), uint16(0))
	f.Add("", []byte(nil), uint16(0), byte(0), uint16(0))
	f.Add("k", []byte(`null`), uint16(0), byte(0), uint16(0))
	f.Add("k", []byte(`{"a":1}`), uint16(0), byte(0x40), uint16(0))  // magic
	f.Add("k", []byte(`{"a":1}`), uint16(8), byte(0x01), uint16(0))  // version
	f.Add("k", []byte(`{"a":1}`), uint16(12), byte(0x03), uint16(0)) // kind
	f.Add("k", []byte(`{"a":1}`), uint16(13), byte(0x01), uint16(0)) // length
	f.Add("k", []byte(`{"a":1}`), uint16(30), byte(0x20), uint16(0)) // payload
	f.Add("k", []byte(`{"a":1}`), uint16(0), byte(0), uint16(1))
	f.Add("k", []byte(`{"a":1}`), uint16(0), byte(0), uint16(40))

	path := filepath.Join(f.TempDir(), "sweep.ckpt")
	f.Fuzz(func(t *testing.T, key string, result []byte, pos uint16, flip byte, cut uint16) {
		raw := checkpoint.EncodeSweep(&checkpoint.Sweep{
			Version: "fuzz-v",
			Results: []checkpoint.SweepResult{{Key: key, Result: result}},
		})
		damaged := flip != 0 || cut != 0
		if flip != 0 {
			raw[int(pos)%len(raw)] ^= flip
		}
		if cut != 0 {
			raw = raw[:len(raw)-1-int(cut)%len(raw)]
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ck := NewCheckpointer(path, 1, "fuzz-v")
		err := ck.Load()
		if damaged {
			var ve *checkpoint.UnsupportedVersionError
			var ce *checkpoint.ChecksumError
			var co *checkpoint.CorruptError
			if err == nil || !errors.Is(err, checkpoint.ErrBadMagic) && !errors.Is(err, checkpoint.ErrTruncated) &&
				!errors.As(err, &ve) && !errors.As(err, &ce) && !errors.As(err, &co) {
				t.Fatalf("damaged ledger: Load err = %v, want a typed checkpoint error", err)
			}
		} else if err != nil {
			t.Fatalf("intact ledger: Load err = %v", err)
		}

		sentinel := ledgerResult{A: -1, B: "untouched", Rows: []float64{-1}}
		out := ledgerResult{A: -1, B: "untouched", Rows: []float64{-1}}
		if ck.Lookup(key, &out) {
			var want ledgerResult
			if damaged || json.Unmarshal(result, &want) != nil {
				t.Fatalf("Lookup hit on %q (damaged %v)", result, damaged)
			}
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("Lookup = %+v, want %+v", out, want)
			}
		} else {
			if !damaged && json.Unmarshal(result, new(ledgerResult)) == nil {
				t.Fatalf("Lookup missed a stored, decodable result %q", result)
			}
			if !reflect.DeepEqual(out, sentinel) {
				t.Fatalf("a missed Lookup changed its destination to %+v", out)
			}
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
