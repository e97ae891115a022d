package checkpoint

// Session payload: the wire order is the declared field order (walk.go) and
// every map-backed collection arrives pre-sorted from mpi.Session.Snapshot,
// so one session state always encodes to one byte sequence — the property
// the golden SHA-256 hashes in internal/experiments pin down.

import (
	"crypto/sha256"
	"encoding/hex"

	"hclocksync/internal/mpi"
)

// Session is one checkpointed MPI job: the full mid-run state captured at a
// quiescent cut, plus the application's own cross-phase payload (for the
// experiment harnesses: per-rank synchronized-clock models and phase
// timings, serialized by the experiment that owns them).
type Session struct {
	// Cut numbers the quiescent cut this snapshot was taken at (1 after the
	// first phase, and so on) so a resumer knows which phases are done.
	Cut   int
	State mpi.SessionState
	App   [][]byte
}

// EncodeSession serializes s into a sealed container.
func EncodeSession(s *Session) []byte {
	return sealValue(KindSession, s)
}

// DecodeSession parses a sealed container produced by EncodeSession. All
// failure modes — wrong magic, version, kind, CRC, truncation, structural
// nonsense — come back as typed errors; no input makes it panic.
func DecodeSession(b []byte) (*Session, error) {
	s := new(Session)
	if err := openValue(b, KindSession, "not a session checkpoint", s); err != nil {
		return nil, err
	}
	return s, nil
}

// Digest returns the SHA-256 hex of an encoded checkpoint — the identity
// the golden tests compare.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
