package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
