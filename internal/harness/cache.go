package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// Cache is a content-addressed on-disk result store. Keys are SHA-256 over
// the canonical JSON of (code version, suite, task, seed, config); entries
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
// version, suite, task name, seed, and the canonical JSON of the config.
// A nil config is allowed (it hashes as JSON null). A config with a field
// that cannot enter the key (see keyable) is an error.
func CacheKey(version, suite, task string, seed int64, config any) (string, error) {
	if err := keyable(reflect.TypeOf(config)); err != nil {
		return "", fmt.Errorf("harness: config of %s/%s cannot key the cache: %w", suite, task, err)
	}
	cfg, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("harness: config of %s/%s is not serializable: %w", suite, task, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\x00", version, suite, task, seed)
	h.Write(cfg)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// keyableTypes memoizes keyable per config type (reflect.Type -> error).
var keyableTypes sync.Map

// keyable reports the first struct field reachable from t — through
// pointers, slices, arrays, maps and nested structs — whose value the JSON
// encoder leaves out of the key: unexported, tagged json:"-", or omitempty
// (the zero value drops out, so a zero field and an absent one share cached
// results). Two experiments differing only in such a field would share one
// cached result. Interface-typed fields are not walked.
func keyable(t reflect.Type) error {
	if t == nil {
		return nil
	}
	if v, ok := keyableTypes.Load(t); ok {
		err, _ := v.(error)
		return err
	}
	err := walkKeyable(t, map[reflect.Type]bool{})
	keyableTypes.Store(t, err)
	return err
}

func walkKeyable(t reflect.Type, seen map[reflect.Type]bool) error {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array || t.Kind() == reflect.Map {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || seen[t] {
		return nil
	}
	seen[t] = true
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		_, opts, _ := strings.Cut(tag, ",")
		switch {
		case !f.IsExported():
			return fmt.Errorf("%s.%s is unexported", t, f.Name)
		case tag == "-":
			return fmt.Errorf("%s.%s is tagged json:\"-\"", t, f.Name)
		case slices.Contains(strings.Split(opts, ","), "omitempty"):
			return fmt.Errorf("%s.%s is omitempty", t, f.Name)
		}
		if err := walkKeyable(f.Type, seen); err != nil {
			return err
		}
	}
	return nil
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
	return json.Unmarshal(e.Result, out) == nil
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
	cfg, err := json.Marshal(config)
	if err != nil {
		return
	}
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
