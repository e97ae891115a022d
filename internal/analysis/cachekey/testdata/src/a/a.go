// Package a is the cachekey fixture; the test points the analyzer's
// harness package at it, so the local Task and CacheKey stand in for
// hclocksync/internal/harness.
package a

// Task mirrors harness.Task's Config-carrying shape.
type Task struct {
	Suite  string
	Name   string
	Config any
}

// CacheKey mirrors harness.CacheKey's signature: config is argument 4.
func CacheKey(version, suite, task string, seed int64, config any) string {
	return version + suite + task
}

// goodCfg is fully JSON-visible: nothing to report.
type goodCfg struct {
	N     int
	Alpha float64 `json:"alpha"`
}

type badCfg struct {
	N       int
	Workers int  `json:"-"` // want `cache-key field a\.badCfg\.Workers is tagged json:"-" and never enters the key`
	jobs    int  // want `cache-key field a\.badCfg\.jobs is unexported and never enters the key`
	Cut     bool `json:",omitempty"` // want `cache-key field a\.badCfg\.Cut is omitempty`
	Nested  nestedCfg
}

// nestedCfg is reachable through badCfg's JSON-visible Nested field, so
// its fields are obligated too.
type nestedCfg struct {
	Hidden int `json:"-"` // want `cache-key field a\.nestedCfg\.Hidden is tagged json:"-" and never enters the key`
	Shown  int
}

// okCfg reaches the key through a direct CacheKey call.
type okCfg struct {
	Size int
}

// unreached never flows into a Task or CacheKey call: nothing is
// obligated even though it would fail every rule.
type unreached struct {
	hidden  int
	Skipped int `json:"-"`
}

func use() []string {
	var keys []string
	t1 := Task{Suite: "s", Name: "good", Config: goodCfg{N: 1, Alpha: 0.5}}
	t2 := Task{Suite: "s", Name: "bad", Config: badCfg{N: 2}}
	keys = append(keys, CacheKey("v1", t1.Suite, t1.Name, 7, okCfg{Size: 3}))
	// Interface-typed argument: the concrete type was recorded where the
	// value was built, so this call records nothing new.
	keys = append(keys, CacheKey("v1", t2.Suite, t2.Name, 7, t2.Config))
	return keys
}
