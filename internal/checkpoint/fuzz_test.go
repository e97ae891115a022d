package checkpoint

import (
	"errors"
	"math/rand"
	"testing"
)

// FuzzSnapshotDecode drives the session decoder with arbitrary bytes. The
// contract under test: every input either decodes cleanly or is rejected
// with one of the format's typed errors — no input may panic, hang, or
// come back with an untyped failure. Valid encodings must additionally
// survive a re-encode with identical bytes (the determinism contract).
func FuzzSnapshotDecode(f *testing.F) {
	// Seed corpus: a full and an empty valid session, and systematic
	// corruptions of each — truncations, wrong version, flipped payload and
	// CRC bits, wrong kind, and a count field inflated past the payload.
	rng := rand.New(rand.NewSource(99))
	session := EncodeSession(&Session{Cut: 1, State: randSessionState(rng)})
	empty := EncodeSession(&Session{})
	for _, valid := range [][]byte{session, empty} {
		f.Add(valid)
		for _, cut := range []int{0, 7, len(valid) / 2, len(valid) - 1} {
			f.Add(valid[:cut])
		}
		for _, pos := range []int{0, 8, 12, 13, headerLen, len(valid) - 1} {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add(magic[:])
	// A frame whose inner count claims 2^60 elements.
	huge := seal(KindSession, []byte{0, 0, 0, 0, 0, 0, 0, 0x10})
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeSession(data); err != nil {
			var ve *UnsupportedVersionError
			var ce *ChecksumError
			var co *CorruptError
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) &&
				!errors.As(err, &ve) && !errors.As(err, &ce) && !errors.As(err, &co) {
				t.Fatalf("untyped decode error: %v", err)
			}
		}
		// A decodable session must re-encode byte-identically.
		if s, err := DecodeSession(data); err == nil {
			if Digest(EncodeSession(s)) != Digest(data) {
				t.Fatal("valid session did not re-encode to identical bytes")
			}
		}
	})
}
