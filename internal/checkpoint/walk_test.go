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

// The format is pinned by bytes: testdata/*_v2.bin hold a 16-rank session
// with in-flight messages of all three payload kinds, a split communicator,
// a stepped-clock fork and a three-blob App, and a sweep with a finished
// result, an empty result and that session as its in-flight task. They are
// the version-1 fixtures of the hand-written per-field codec this package
// had before the reflective walker, with the one field version 2 dropped
// (the fork's zero rate change) cut out and the frames re-sealed. Decoding
// and re-encoding them must give the bytes back, so a ledger written before
// a change restores after it. Regenerating these files is a format change:
// bump FormatVersion.
func TestFormatV2BytesUnchanged(t *testing.T) {
	if FormatVersion != 2 {
		t.Fatalf("FormatVersion = %d; the v2 fixtures no longer apply", FormatVersion)
	}
	session, err := os.ReadFile("testdata/session_v2.bin")
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
	if s.Cut != 2 || len(kinds) != 3 || len(s.State.World.Comms) == 0 ||
		len(s.State.World.FaultyClocks) == 0 || len(s.App) != 3 {
		t.Fatalf("session fixture lost coverage: cut=%d kinds=%v comms=%d forks=%d app=%d", s.Cut, kinds,
			len(s.State.World.Comms), len(s.State.World.FaultyClocks), len(s.App))
	}
	if got := EncodeSession(s); !bytes.Equal(got, session) {
		t.Errorf("session_v2.bin re-encoded to different bytes (%d B, fixture %d B)", len(got), len(session))
	}

	// A container of the previous version is refused by its version alone,
	// before the checksum or the payload is looked at.
	v1 := append([]byte(nil), session...)
	binary.LittleEndian.PutUint32(v1[len(magic):], 1)
	var ve *UnsupportedVersionError
	if _, err := DecodeSession(v1); !errors.As(err, &ve) || ve.Version != 1 {
		t.Errorf("version-1 container: err = %v, want *UnsupportedVersionError{Version: 1}", err)
	}

	sweep, err := os.ReadFile("testdata/sweep_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	w, err := DecodeSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Results) != 2 || w.Results[1].Result != nil || len(w.Tasks) != 1 || !bytes.Equal(w.Tasks[0].Snap, session) {
		t.Fatalf("sweep fixture lost coverage: %d results, %d tasks", len(w.Results), len(w.Tasks))
	}
	if got := EncodeSweep(w); !bytes.Equal(got, sweep) {
		t.Errorf("sweep_v2.bin re-encoded to different bytes (%d B, fixture %d B)", len(got), len(sweep))
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
	for _, root := range []any{Session{}, Sweep{}} {
		rt := reflect.TypeOf(root)
		for _, bad := range unwalkable(rt, rt.Name()) {
			t.Error(bad)
		}
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
