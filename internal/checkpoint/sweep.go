package checkpoint

// Sweep payload: a harness sweep's resumable progress — its completed
// tasks, with their canonical-JSON results keyed by harness cache key. The
// harness sorts the list before encoding, so a sweep file is as
// deterministic as a session one.

// Sweep is a sweep checkpoint's content.
type Sweep struct {
	// Version is the engine's code-version string, for the record: the
	// cache keys already embed it, so a resumer built from different code
	// never matches an entry.
	Version string
	// Results are the completed tasks, sorted by Key.
	Results []SweepResult
}

// SweepResult is one completed task: its harness cache key and its
// canonical-JSON result payload.
type SweepResult struct {
	Key    string
	Result []byte
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
