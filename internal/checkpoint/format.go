// Package checkpoint serializes a running simulation's state at a
// quiescent virtual-time cut into a versioned, checksum-guarded,
// deterministic binary format, and restores it byte-identically in a fresh
// process.
//
// It has one payload kind, KindSession: one mpi.Session captured at a cut
// (kernel state, clock wander, in-flight mailboxes, per-rank random-stream
// positions). No experiment writes one: a sweep checkpoints whole tasks, as
// entries of a result-cache directory (internal/harness). The codec stays,
// pinned by testdata/session_v4.bin, for mpi.ResumeSession and the
// repository benchmark's checkpoint probe.
//
// The container is magic(8) | version(u32) | kind(u8) | length(u64) |
// payload | crc32(u32), everything little-endian, the CRC covering all
// preceding bytes. The payload is one reflective walk over the state's
// declared fields (walk.go), so a new state field needs no codec line.
// Encoding is deterministic: equal states serialize to equal bytes
// (map-backed state is sorted before it gets here), which is what lets
// golden SHA-256 hashes prove a checkpoint-resume cycle changed nothing.
// Decoding is defensive: every read is length-guarded, element
// counts are validated against the remaining payload before allocation, and
// all failures are typed errors — never panics — so the decoder can face
// fuzzers and truncated files on disk.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// magic opens every checkpoint file. The PNG-style framing (high bit set,
// CR LF tail) turns text-mode mangling into an immediate ErrBadMagic.
var magic = [8]byte{0x89, 'H', 'C', 'K', 'P', 'T', 0x0D, 0x0A}

// FormatVersion is the current container version. Decoders reject other
// versions with UnsupportedVersionError; the policy is strict equality —
// checkpoints are short-lived crash-recovery artifacts, not archives, so
// there is no cross-version migration path (see DESIGN.md §11).
const FormatVersion uint32 = 4

// KindSession is the container's payload kind. Kind 2 was the sweep ledger
// before it became a result-cache directory; it now decodes as a
// CorruptError.
const KindSession byte = 1

// Typed decode failures.
var (
	// ErrBadMagic: the bytes are not a checkpoint at all.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrTruncated: the container or a payload field ends prematurely.
	ErrTruncated = errors.New("checkpoint: truncated")
)

// UnsupportedVersionError reports a container written by a different format
// version.
type UnsupportedVersionError struct {
	Version uint32
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported format version %d (this build reads %d)",
		e.Version, FormatVersion)
}

// ChecksumError reports CRC mismatch: the container frame is intact but the
// bytes were corrupted.
type ChecksumError struct {
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("checkpoint: checksum mismatch (stored %08x, computed %08x)", e.Want, e.Got)
}

// CorruptError reports a structurally invalid payload: the frame and CRC
// are fine but a field inside contradicts the format.
type CorruptError struct {
	Field string
	Msg   string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: corrupt %s: %s", e.Field, e.Msg)
}

const headerLen = 8 + 4 + 1 + 8 // magic, version, kind, payload length
const trailerLen = 4            // crc32

// seal wraps payload in the container frame.
func seal(kind byte, payload []byte) []byte {
	b := make([]byte, 0, headerLen+len(payload)+trailerLen)
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, FormatVersion)
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// open validates the container frame and returns the kind and payload.
func open(b []byte) (kind byte, payload []byte, err error) {
	if len(b) < len(magic) {
		return 0, nil, ErrTruncated
	}
	if [8]byte(b[:8]) != magic {
		return 0, nil, ErrBadMagic
	}
	if len(b) < headerLen+trailerLen {
		return 0, nil, ErrTruncated
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != FormatVersion {
		return 0, nil, &UnsupportedVersionError{Version: v}
	}
	kind = b[12]
	n := binary.LittleEndian.Uint64(b[13:])
	if n != uint64(len(b)-headerLen-trailerLen) {
		return 0, nil, ErrTruncated
	}
	body := b[:len(b)-trailerLen]
	want := binary.LittleEndian.Uint32(b[len(b)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, nil, &ChecksumError{Want: want, Got: got}
	}
	return kind, b[headerLen : len(b)-trailerLen], nil
}

// enc is the deterministic payload writer: fixed-width little-endian
// fields, floats as IEEE-754 bits, counts as u64 prefixes.
type enc struct {
	b []byte
}

func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// dec is the guarded payload reader. The first failure sticks: every later
// read returns zero values, and the caller checks err once at the end (or
// wherever a count is about to size a loop).
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes as a view into the payload (the caller
// copies), or nil, failing with ErrTruncated, if the payload is short.
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail(ErrTruncated)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *dec) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads an element-count prefix and validates it against the bytes
// remaining, given a minimum encoded size per element — the guard that
// keeps a fuzzed length from driving a huge allocation.
func (d *dec) count(elemSize int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(len(d.b)-d.off)/uint64(elemSize) {
		d.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// finish reports the sticky error, or a CorruptError if undecoded bytes
// remain (a well-formed payload is consumed exactly).
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return &CorruptError{Field: "payload", Msg: fmt.Sprintf("%d trailing bytes", len(d.b)-d.off)}
	}
	return nil
}
