package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// Cache is a content-addressed on-disk result store. Keys are SHA-256 over
// (code version, suite, task, seed, config) — see CacheKey; entries
// live at <dir>/<key[:2]>/<key>.json and embed a checksum of the result
// payload so corruption is detected on read rather than propagated into
// published numbers.
//
// The cache is best-effort by design: any I/O or decoding problem is treated
// as a miss and the task is recomputed. Results that cannot round-trip
// through JSON (for example values containing NaN) are silently left
// uncached.
type Cache struct {
	dir string
}

// OpenCache roots a cache at dir; the directory is created lazily on the
// first Put.
func OpenCache(dir string) *Cache { return &Cache{dir: dir} }

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// entry is the on-disk envelope of one cached result.
type entry struct {
	Key      string          `json:"key"`
	Version  string          `json:"version"`
	Suite    string          `json:"suite"`
	Task     string          `json:"task"`
	Seed     int64           `json:"seed"`
	Config   json.RawMessage `json:"config"`
	Checksum string          `json:"checksum"` // SHA-256 hex of Result
	Result   json.RawMessage `json:"result"`
}

// CacheKey computes the content address of one task: SHA-256 over the code
// version, suite, task name, seed, and the config's Go-syntax rendering
// (fmt's %#v). That rendering spells out every field — unexported ones,
// json:"-" and omitempty ones included — and the concrete type and
// parameters of every value behind an interface, so two configs that run
// differently never share a key. A nil config is allowed. A config whose
// rendering holds an address — a pointer below the top level, a func or a
// chan — is an error: an address differs per process, so its key would
// never hit the cache and no fabric worker could reproduce it. A nested
// pointer type needs a GoString printing its fields, as
// clocksync.MeanRTTOffset has.
func CacheKey(version, suite, task string, seed int64, config any) (string, error) {
	cfg := fmt.Sprintf("%#v", config)
	if strings.Contains(cfg, ")(0x") {
		return "", fmt.Errorf("harness: config of %s/%s holds an address and cannot key the cache: %s", suite, task, cfg)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\x00%s", version, suite, task, seed, cfg)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get loads the entry under key into out. It reports false — never an error
// — on any miss: absent file, malformed JSON, key or checksum mismatch, or
// a payload that no longer unmarshals into out's type.
//
// A corrupted entry (undecodable envelope, wrong key, or a checksum that no
// longer matches the payload) is quarantined: renamed aside with a .corrupt
// suffix so the next Put can re-fill the slot and the damaged bytes stay
// available for a post-mortem instead of being retried — or worse, trusted
// — on every subsequent run. A payload that merely fails to unmarshal into
// out's type is left in place: the entry is intact, the caller's type moved.
// On any miss, out is untouched.
func (c *Cache) Get(key string, out any) bool {
	if c == nil {
		return false
	}
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		c.quarantine(path)
		return false
	}
	if e.Key != key {
		c.quarantine(path)
		return false
	}
	sum := sha256.Sum256(e.Result)
	if hex.EncodeToString(sum[:]) != e.Checksum {
		c.quarantine(path)
		return false
	}
	return decodeInto(e.Result, out)
}

// decodeInto unmarshals raw into a fresh zero value of out's pointee type
// and stores it through out only on success: a decode that fails part-way
// must not leave the fields it reached set in the caller's value, where a
// later decode (a fabric worker's result) would merge over them.
func decodeInto(raw []byte, out any) bool {
	dst := reflect.ValueOf(out)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return false
	}
	fresh := reflect.New(dst.Elem().Type())
	if json.Unmarshal(raw, fresh.Interface()) != nil {
		return false
	}
	dst.Elem().Set(fresh.Elem())
	return true
}

// quarantine moves a corrupted entry aside so it reads as a miss from now
// on. Best-effort like the rest of the cache: a failed rename (e.g. a
// read-only cache directory) just leaves the entry to be detected again.
func (c *Cache) quarantine(path string) {
	_ = os.Rename(path, path+".corrupt")
}

// Put stores result under key. Failures (unserializable result, full disk)
// are swallowed: caching is an optimization, not a correctness requirement.
func (c *Cache) Put(key, version, suite, task string, seed int64, config, result any) {
	if c == nil {
		return
	}
	res, err := json.Marshal(result)
	if err != nil {
		return
	}
	// The config is only echoed, so one JSON cannot hold (a NaN) is null.
	cfg, _ := json.Marshal(config)
	sum := sha256.Sum256(res)
	raw, err := json.Marshal(entry{
		Key:      key,
		Version:  version,
		Suite:    suite,
		Task:     task,
		Seed:     seed,
		Config:   cfg,
		Checksum: hex.EncodeToString(sum[:]),
		Result:   res,
	})
	if err != nil {
		return
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	// Write-then-rename so a crashed run leaves either the old entry or a
	// complete new one, never a torn file that a later Get must distrust.
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}
