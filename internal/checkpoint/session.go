package checkpoint

// Session payload: the wire order is the declared field order (walk.go) and
// every map-backed collection arrives pre-sorted from mpi.Session.Snapshot,
// so one session state always encodes to one byte sequence — the property
// the golden SHA-256 hashes in internal/experiments pin down.

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"

	"hclocksync/internal/mpi"
)

// Session is one checkpointed MPI job: the full mid-run state captured at a
// quiescent cut. No experiment saves one — the sweep ledger keeps finished
// task results in a result-cache directory (DESIGN.md §11) — but the format
// stays pinned and round-trips through mpi.ResumeSession, which the
// benchmark's checkpoint probe prices.
type Session struct {
	// Cut numbers the quiescent cut this snapshot was taken at (1 after the
	// first phase, and so on) so a resumer knows which phases are done.
	Cut   int
	State mpi.SessionState
}

// EncodeSession serializes s into a sealed container.
func EncodeSession(s *Session) []byte {
	var e enc
	encodeValue(&e, reflect.ValueOf(s).Elem())
	return seal(KindSession, e.b)
}

// DecodeSession parses a sealed container produced by EncodeSession. All
// failure modes — wrong magic, version, kind, CRC, truncation, structural
// nonsense — come back as typed errors; no input makes it panic.
func DecodeSession(b []byte) (*Session, error) {
	kind, payload, err := open(b)
	if err != nil {
		return nil, err
	}
	if kind != KindSession {
		return nil, &CorruptError{Field: "kind", Msg: "not a session checkpoint"}
	}
	s := new(Session)
	d := &dec{b: payload}
	decodeValue(d, reflect.ValueOf(s).Elem())
	if err := d.finish(); err != nil {
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
