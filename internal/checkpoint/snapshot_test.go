package checkpoint

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/mpi"
)

// randSessionState builds a structurally valid session state with
// randomized contents, exercising every field of the codec.
func randSessionState(rng *rand.Rand) mpi.SessionState {
	var st mpi.SessionState
	st.Env.Now = rng.Float64() * 100
	st.Env.Seq = rng.Int63n(1 << 30)
	st.Env.Spawned = rng.Intn(64)

	randClock := func() cluster.ClockState {
		cs := cluster.ClockState{Segments: rng.Intn(50)}
		for i := rng.Intn(3); i > 0; i-- {
			cs.Dists = append(cs.Dists, cluster.Disturbance{
				At: rng.Float64() * 50, Step: rng.NormFloat64() * 1e-3,
			})
		}
		return cs
	}
	for i := rng.Intn(4); i > 0; i-- {
		st.Clocks.Mono = append(st.Clocks.Mono, randClock())
	}
	for i := rng.Intn(4); i > 0; i-- {
		st.Clocks.GTOD = append(st.Clocks.GTOD, randClock())
	}

	st.World.NextComm = 1 + rng.Intn(8)
	for i := rng.Intn(3); i > 0; i-- {
		st.World.Comms = append(st.World.Comms, mpi.CommState{
			Parent: rng.Intn(4), Seq: rng.Intn(10), Color: rng.Intn(4), ID: 1 + i,
		})
	}
	for i := rng.Intn(5); i > 0; i-- {
		st.World.CollSeq = append(st.World.CollSeq, rng.Intn(100))
	}
	for i := rng.Intn(4); i > 0; i-- {
		st.World.Clamps = append(st.World.Clamps, mpi.ClampState{
			Src: rng.Intn(8), Dst: rng.Intn(8), Arrival: rng.Float64() * 100,
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		mb := mpi.MailboxState{Comm: rng.Intn(3), Dst: rng.Intn(8), Src: rng.Intn(8), Tag: rng.Intn(10) - 5}
		for j := rng.Intn(3); j > 0; j-- {
			m := mpi.MessageState{Arrival: rng.Float64() * 100, Sender: rng.Intn(8)}
			switch rng.Intn(3) {
			case 0:
				m.Kind = 0 // bytes
				buf := make([]byte, rng.Intn(20))
				rng.Read(buf)
				if len(buf) > 0 {
					m.Data = buf
				}
			case 1:
				m.Kind = 1 // single f64
				m.V = rng.NormFloat64()
			case 2:
				m.Kind = 2 // f64 vector
				fv := make([]float64, 1+rng.Intn(5))
				for k := range fv {
					fv[k] = rng.NormFloat64()
				}
				m.FV = fv
			}
			mb.Msgs = append(mb.Msgs, m)
		}
		st.World.Mail = append(st.World.Mail, mb)
	}
	for i := rng.Intn(8); i > 0; i-- {
		st.World.Draws = append(st.World.Draws, rng.Uint64()%(1<<40))
	}
	for i := rng.Intn(2); i > 0; i-- {
		st.World.FaultyClocks = append(st.World.FaultyClocks, mpi.FaultyClockState{
			Rank: rng.Intn(8), Clock: randClock(),
		})
	}
	return st
}

// Property: DecodeSession(EncodeSession(s)) is deep-equal to s, and equal
// sessions encode to identical bytes, across randomized states.
func TestSessionCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := &Session{Cut: rng.Intn(5), State: randSessionState(rng)}
		b1 := EncodeSession(s)
		b2 := EncodeSession(s)
		if Digest(b1) != Digest(b2) {
			t.Fatalf("trial %d: nondeterministic encoding", trial)
		}
		got, err := DecodeSession(b1)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("trial %d: round trip mismatch:\n got %+v\nwant %+v", trial, got, s)
		}
	}
}

// End-to-end: a real session checkpointed through the binary format and
// resumed in a "fresh process" (new Session from the decoded bytes) replays
// its remaining phase identically to the uninterrupted original.
func TestSessionCheckpointResumeEndToEnd(t *testing.T) {
	cfg := func() mpi.Config {
		// Drops none of the messages but draws once per message from the
		// sender's stream, whose position rides the snapshot.
		plan := faults.Plan{DropProb: 1e-12}
		return mpi.Config{Spec: cluster.TestBox(), NProcs: 8, Seed: 17, Faults: faults.NewInjector(plan)}
	}
	phaseA := func(p *mpi.Proc) {
		c := p.World()
		c.Barrier()
		if p.Rank()%2 == 0 && p.Rank()+1 < c.Size() {
			c.SendF64(p.Rank()+1, 3, float64(p.Rank())+0.5)
		}
	}
	phaseB := func(out []float64) func(p *mpi.Proc) {
		return func(p *mpi.Proc) {
			c := p.World()
			v := 0.0
			if p.Rank()%2 == 1 {
				v = c.RecvF64(p.Rank()-1, 3)
			}
			out[p.Rank()] = c.AllreduceF64(v+p.TrueNow(), mpi.OpSum)
		}
	}

	orig, err := mpi.NewSession(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.RunPhase(phaseA); err != nil {
		t.Fatal(err)
	}
	st, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.World.Draws[0] == 0 {
		t.Fatal("rank 0 drew nothing before the cut: its stream position is untested")
	}
	raw := EncodeSession(&Session{Cut: 1, State: st})

	want := make([]float64, 8)
	if err := orig.RunPhase(phaseB(want)); err != nil {
		t.Fatal(err)
	}

	decoded, err := DecodeSession(raw)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Cut != 1 {
		t.Fatalf("decoded header mangled: cut=%d", decoded.Cut)
	}
	resumed, err := mpi.ResumeSession(cfg(), decoded.State)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 8)
	if err := resumed.RunPhase(phaseB(got)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed phase diverged:\n got %v\nwant %v", got, want)
	}

	// The resumed session must snapshot to byte-identical state as the
	// original at the same (final) cut.
	stA, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stB, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a := EncodeSession(&Session{Cut: 2, State: stA})
	b := EncodeSession(&Session{Cut: 2, State: stB})
	if Digest(a) != Digest(b) {
		t.Fatal("final snapshots of original and resumed sessions differ")
	}
}

// A checkpoint that decodes but carries a time or counter no kernel could
// have reached — crafted, or written by a broken build — is refused by
// ResumeSession with an error, before any phase can run on it.
func TestResumeRejectsHostileDecodedState(t *testing.T) {
	cfg := func() mpi.Config { return mpi.Config{Spec: cluster.TestBox(), NProcs: 4, Seed: 5} }
	s, err := mpi.NewSession(cfg())
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunPhase(func(p *mpi.Proc) {
		if p.Rank() == 0 {
			p.World().SendF64(1, 1, 0.5) // in flight across the cut
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.World.Mail) == 0 || len(st.World.Clamps) == 0 {
		t.Fatalf("cut holds %d mailboxes and %d clamps: the hostile arrivals are untested", len(st.World.Mail), len(st.World.Clamps))
	}
	raw := EncodeSession(&Session{Cut: 1, State: st})
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		edit func(st *mpi.SessionState)
	}{
		{"NaN time", func(st *mpi.SessionState) { st.Env.Now = nan }},
		{"+Inf time", func(st *mpi.SessionState) { st.Env.Now = inf }},
		{"negative time", func(st *mpi.SessionState) { st.Env.Now = -1 }},
		{"negative seq", func(st *mpi.SessionState) { st.Env.Seq = -1 }},
		{"negative spawned", func(st *mpi.SessionState) { st.Env.Spawned = -1 }},
		{"NaN message arrival", func(st *mpi.SessionState) { st.World.Mail[0].Msgs[0].Arrival = nan }},
		{"+Inf message arrival", func(st *mpi.SessionState) { st.World.Mail[0].Msgs[0].Arrival = inf }},
		{"NaN clamp arrival", func(st *mpi.SessionState) { st.World.Clamps[0].Arrival = nan }},
		{"-Inf clamp arrival", func(st *mpi.SessionState) { st.World.Clamps[0].Arrival = -inf }},
		{"stream positions for 3 of 4 ranks", func(st *mpi.SessionState) { st.World.Draws = st.World.Draws[:3] }},
		{"mailbox for rank 99 of 4", func(st *mpi.SessionState) { st.World.Mail[0].Dst = 99 }},
		{"mailbox from rank -7", func(st *mpi.SessionState) { st.World.Mail[0].Src = -7 }},
		{"message sender not its mailbox's source", func(st *mpi.SessionState) { st.World.Mail[0].Msgs[0].Sender = 3 }},
		{"clamp for rank 1<<40", func(st *mpi.SessionState) { st.World.Clamps[0].Dst = 1 << 40 }},
		{"mailbox on communicator 1<<33", func(st *mpi.SessionState) { st.World.Mail[0].Comm = 1 << 33 }},
	} {
		dec, err := DecodeSession(raw)
		if err != nil {
			t.Fatal(err)
		}
		c.edit(&dec.State)
		hostile, err := DecodeSession(EncodeSession(dec))
		if err != nil {
			t.Fatalf("%s: the hostile state does not decode: %v", c.name, err)
		}
		if r, err := mpi.ResumeSession(cfg(), hostile.State); err == nil || !strings.HasPrefix(err.Error(), "mpi: resume: ") {
			t.Errorf("%s: ResumeSession = (%v, %v), want a resume error", c.name, r, err)
		}
	}
	dec, err := DecodeSession(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.ResumeSession(cfg(), dec.State); err != nil {
		t.Fatalf("the untouched state is refused: %v", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := t.TempDir() + "/sub/dir/run.ckpt"
	data := EncodeSweep(&Sweep{Version: "v"})
	if err := WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if Digest(got) != Digest(data) {
		t.Fatal("file round trip changed bytes")
	}
	// Overwrite must be atomic-replace, not append.
	data2 := EncodeSweep(&Sweep{Version: "v2"})
	if err := WriteFile(path, data2); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if Digest(got2) != Digest(data2) {
		t.Fatal("overwrite did not replace contents")
	}
}
