package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"hclocksync/internal/mpi"
)

// The format is pinned by bytes: testdata/session_v4.bin holds a 16-rank
// session with in-flight messages of all three payload kinds, a split
// communicator, a stepped-clock fork and every rank's random-stream
// position. It descends from the version-1 fixture of the hand-written
// per-field codec this package had before the reflective walker: version 2
// dropped the fork's zero rate change, version 3 the session's application
// payload (App), version 4 the kernel's random-stream seed and position and
// the fault injector's draw counts, adding per-rank stream positions
// (synthetic counts in the fixture), and each time the frame was re-sealed.
// Decoding and re-encoding it must give the bytes back, so a snapshot
// written before a change restores after it. Regenerating this file is a
// format change: bump FormatVersion.
func TestFormatV4BytesUnchanged(t *testing.T) {
	if FormatVersion != 4 {
		t.Fatalf("FormatVersion = %d; the v4 fixtures no longer apply", FormatVersion)
	}
	session, err := os.ReadFile("testdata/session_v4.bin")
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSession(session)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[uint8]bool{}
	for _, mb := range s.State.World.Mail {
		for _, m := range mb.Msgs {
			kinds[m.Kind] = true
		}
	}
	if s.Cut != 2 || len(kinds) != 3 || len(s.State.World.Comms) == 0 || len(s.State.World.FaultyClocks) == 0 ||
		len(s.State.World.Draws) != 16 {
		t.Fatalf("session fixture lost coverage: cut=%d kinds=%v comms=%d forks=%d stream positions=%d", s.Cut, kinds,
			len(s.State.World.Comms), len(s.State.World.FaultyClocks), len(s.State.World.Draws))
	}
	if got := EncodeSession(s); !bytes.Equal(got, session) {
		t.Errorf("session_v4.bin re-encoded to different bytes (%d B, fixture %d B)", len(got), len(session))
	}

	// A container of an earlier version is refused by its version alone,
	// before the checksum or the payload is looked at.
	for _, v := range []uint32{1, 2, 3} {
		old := append([]byte(nil), session...)
		binary.LittleEndian.PutUint32(old[len(magic):], v)
		var ve *UnsupportedVersionError
		if _, err := DecodeSession(old); !errors.As(err, &ve) || ve.Version != v {
			t.Errorf("version-%d container: err = %v, want *UnsupportedVersionError{Version: %d}", v, err, v)
		}
	}
}

// unwalkable lists, by field path, what the walker cannot carry under t: an
// unexported field (reflection cannot set it) or a kind outside the ones
// encodeValue/decodeValue handle.
func unwalkable(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Uint8, reflect.Float64, reflect.String:
		return nil
	case reflect.Slice:
		return unwalkable(t.Elem(), path+"[]")
	case reflect.Struct:
		var bad []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				bad = append(bad, path+"."+f.Name+": unexported")
				continue
			}
			bad = append(bad, unwalkable(f.Type, path+"."+f.Name)...)
		}
		return bad
	}
	return []string{path + ": unsupported kind " + t.Kind().String() + " (" + t.String() + ")"}
}

// A state field the walker cannot carry fails here, by path, instead of
// panicking in the first checkpointed run.
func TestStateTypesWalkable(t *testing.T) {
	for _, bad := range unwalkable(reflect.TypeOf(Session{}), "Session") {
		t.Error(bad)
	}

	// The check fires: one field of each kind it exists to catch.
	type inner struct {
		OK     []float64
		Lookup map[string]int
	}
	type probe struct {
		N      int
		hidden int
		Ptr    *int
		Iface  any
		Narrow float32
		Deep   []inner
	}
	got := unwalkable(reflect.TypeOf(probe{}), "probe")
	want := []string{
		"probe.hidden: unexported",
		"probe.Ptr: unsupported kind ptr (*int)",
		"probe.Iface: unsupported kind interface (interface {})",
		"probe.Narrow: unsupported kind float32 (float32)",
		"probe.Deep[].Lookup: unsupported kind map (map[string]int)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unwalkable(probe) = %q\nwant %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("encodeValue accepted a pointer field")
		}
	}()
	encodeValue(new(enc), reflect.ValueOf(probe{}))
}

// The count guard divides by the element's true minimum: a mailbox of more
// than 24 payload-less 41-byte messages at the end of a state used to be
// refused by a hand-typed count(42).
func TestMinimalMessagesDecode(t *testing.T) {
	if n := minSize(reflect.TypeOf(mpi.MessageState{})); n != 41 {
		t.Fatalf("minSize(MessageState) = %d, want 41", n)
	}
	s := &Session{}
	s.State.World.Mail = []mpi.MailboxState{{Msgs: make([]mpi.MessageState, 64)}}
	for i := range s.State.World.Mail[0].Msgs {
		s.State.World.Mail[0].Msgs[i] = mpi.MessageState{Kind: 1, V: float64(i)}
	}
	got, err := DecodeSession(EncodeSession(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("round trip changed the state")
	}
}
