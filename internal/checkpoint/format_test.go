package checkpoint

import (
	"encoding/binary"
	"errors"
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
	sealed := seal(KindSweep, []byte("payload"))

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

func TestSweepRoundTrip(t *testing.T) {
	s := &Sweep{
		Version: "hclocksync-v1+abc",
		Results: []SweepResult{
			{Key: "aa11", Result: []byte(`{"x":1}`)},
			{Key: "bb22", Result: []byte(`{"y":[2,3]}`)},
		},
	}
	b := EncodeSweep(s)
	got, err := DecodeSweep(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != s.Version || len(got.Results) != 2 {
		t.Fatalf("round trip mangled sweep: %+v", got)
	}
	if string(got.Results[1].Result) != `{"y":[2,3]}` {
		t.Fatalf("round trip mangled fields: %+v", got)
	}
	if _, err := DecodeSession(b); err == nil {
		t.Error("DecodeSession accepted a sweep container")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	s := &Sweep{Version: "v", Results: []SweepResult{{Key: "k", Result: []byte("r")}}}
	a, b := EncodeSweep(s), EncodeSweep(s)
	if Digest(a) != Digest(b) {
		t.Error("equal sweeps encoded to different bytes")
	}
}
