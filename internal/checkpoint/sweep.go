package checkpoint

// Sweep payload: a harness sweep's resumable progress. Completed
// tasks carry their canonical-JSON results keyed by harness cache key;
// tasks interrupted mid-job carry their latest sealed session snapshot.
// The harness sorts both lists before encoding, so a sweep file is as
// deterministic as a session one.

// Sweep is a sweep checkpoint's content.
type Sweep struct {
	// Version is the engine's code-version string. A resumer built from
	// different code ignores the file rather than mix incompatible results.
	Version string
	// Results are the completed tasks, sorted by Key.
	Results []SweepResult
	// Tasks are in-flight task snapshots, sorted by (Suite, Name).
	Tasks []SweepTask
}

// SweepResult is one completed task: its harness cache key and its
// canonical-JSON result payload.
type SweepResult struct {
	Key    string
	Result []byte
}

// SweepTask is the latest mid-run snapshot of one unfinished task.
type SweepTask struct {
	Suite, Name string
	Cut         int
	Snap        []byte // a sealed KindSession container
}

// EncodeSweep serializes s into a sealed container.
func EncodeSweep(s *Sweep) []byte {
	return sealValue(KindSweep, s)
}

// DecodeSweep parses a sealed container produced by EncodeSweep, with the
// same typed-errors-never-panics contract as DecodeSession.
func DecodeSweep(b []byte) (*Sweep, error) {
	s := new(Sweep)
	if err := openValue(b, KindSweep, "not a sweep checkpoint", s); err != nil {
		return nil, err
	}
	return s, nil
}
