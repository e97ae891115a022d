package checkpoint

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func TestContainerRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	sealed := seal(KindSession, payload)
	kind, got, err := open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindSession {
		t.Errorf("kind = %d", kind)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %q", got)
	}
}

func TestContainerRejections(t *testing.T) {
	sealed := seal(KindSession, []byte("payload"))

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), sealed...)
		b[0] ^= 0xFF
		if _, _, err := open(b); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 8, headerLen, len(sealed) - 1} {
			if _, _, err := open(sealed[:n]); !errors.Is(err, ErrTruncated) {
				t.Errorf("open(%d bytes) err = %v, want ErrTruncated", n, err)
			}
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		b := append([]byte(nil), sealed...)
		binary.LittleEndian.PutUint32(b[8:], FormatVersion+1)
		var ve *UnsupportedVersionError
		if _, _, err := open(b); !errors.As(err, &ve) || ve.Version != FormatVersion+1 {
			t.Errorf("err = %v, want UnsupportedVersionError{%d}", err, FormatVersion+1)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		b := append([]byte(nil), sealed...)
		b[headerLen] ^= 0x01
		var ce *ChecksumError
		if _, _, err := open(b); !errors.As(err, &ce) {
			t.Errorf("err = %v, want *ChecksumError", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		// Kind 2 was the single-file sweep ledger.
		_, payload, err := open(EncodeSession(&Session{Cut: 1}))
		if err != nil {
			t.Fatal(err)
		}
		var co *CorruptError
		if _, err := DecodeSession(seal(2, payload)); !errors.As(err, &co) {
			t.Errorf("err = %v, want *CorruptError", err)
		}
	})
	t.Run("flipped crc bit", func(t *testing.T) {
		b := append([]byte(nil), sealed...)
		b[len(b)-1] ^= 0x01
		var ce *ChecksumError
		if _, _, err := open(b); !errors.As(err, &ce) {
			t.Errorf("err = %v, want *ChecksumError", err)
		}
	})
}

func TestDecoderCountGuard(t *testing.T) {
	// A count prefix claiming more elements than the remaining bytes could
	// hold must fail cleanly instead of sizing an allocation from it.
	var e enc
	e.u64(1 << 60)
	d := &dec{b: e.b}
	if n := d.count(8); n != 0 {
		t.Errorf("count = %d, want 0", n)
	}
	if !errors.Is(d.err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", d.err)
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	s := &Session{Cut: 1}
	b := EncodeSession(s)
	// Re-seal the same payload with junk appended: CRC is valid, structure
	// is not consumed exactly.
	_, payload, err := open(b)
	if err != nil {
		t.Fatal(err)
	}
	resealed := seal(KindSession, append(append([]byte(nil), payload...), 0xEE))
	var ce *CorruptError
	if _, err := DecodeSession(resealed); !errors.As(err, &ce) {
		t.Errorf("err = %v, want *CorruptError", err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	st := randSessionState(rand.New(rand.NewSource(7)))
	a, b := EncodeSession(&Session{Cut: 1, State: st}), EncodeSession(&Session{Cut: 1, State: st})
	if Digest(a) != Digest(b) {
		t.Error("equal sessions encoded to different bytes")
	}
}
