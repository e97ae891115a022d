package experiments

// Phased execution: the one mechanism by which a suite's simulated mpirun
// becomes checkpointable. A suite states its per-rank program once, as an
// ordered list of phase bodies over one JSON-serializable cross-phase state
// struct; runPhases owns everything else — running one mpi.Session phase per
// body, every boundary a quiescent virtual-time cut of internal/checkpoint,
// and, when the task has a checkpoint handle, resuming from its latest cut
// and saving a snapshot plus the marshalled state at each new one.
//
// What a suite supplies:
//
//   - bodies: what every rank does, cut where the job is quiescent. A body
//     may hand later bodies data only through the state struct, indexed by
//     rank or written with one value by all ranks: whatever a body reads may
//     come from a snapshot written by another process.
//   - state: a pointer to that struct, pre-sized for the job. JSON keeps the
//     payload self-describing and still round-trips every float64 bit-exactly
//     (Go prints shortest round-trip floats), which is all the byte-identity
//     contract needs.
//   - validate: the shape check applied to a state decoded from a snapshot
//     (slice lengths against the rank count, entries against the cut) before
//     any body indexes into it.

import (
	"encoding/json"
	"fmt"

	"hclocksync/internal/checkpoint"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
)

// runPhases executes bodies on a job built from cfg, one session phase per
// body. A phase ends when every rank has left its body; the next one respawns
// the ranks in rank order at the cut's global virtual time — the same fence
// whether or not anything is saved there, so a checkpoint handle never
// changes the result. With a nil ckpt nothing is saved; with a handle the cut
// number saved after body k is k+1, and a run resumed from cut c executes
// bodies[c:] only.
func runPhases[S any](cfg mpi.Config, ckpt harness.TaskCheckpoint, state *S,
	validate func(cut int) error, bodies []func(*mpi.Proc)) error {
	var s *mpi.Session
	cut := 0
	if ckpt != nil {
		if c, snap, ok := ckpt.Latest(); ok {
			if c < 1 || c >= len(bodies) {
				return fmt.Errorf("resuming: cut %d out of range [1,%d)", c, len(bodies))
			}
			decoded, err := checkpoint.DecodeSession(snap)
			if err != nil {
				return fmt.Errorf("decoding cut %d snapshot: %w", c, err)
			}
			if decoded.Cut != c {
				return fmt.Errorf("ledger names cut %d but the snapshot was taken at cut %d", c, decoded.Cut)
			}
			if len(decoded.App) != 1 {
				return fmt.Errorf("cut %d payload has %d blobs, want 1", c, len(decoded.App))
			}
			// Decode into a zero S, not over the caller's pre-sized one: a
			// payload that omits a field must fail validate, not inherit a
			// plausible-looking empty slice.
			var loaded S
			if err := json.Unmarshal(decoded.App[0], &loaded); err != nil {
				return fmt.Errorf("decoding cut %d payload: %w", c, err)
			}
			*state = loaded
			if err := validate(c); err != nil {
				return fmt.Errorf("cut %d payload: %w", c, err)
			}
			s, err = mpi.ResumeSession(cfg, decoded.State)
			if err != nil {
				return fmt.Errorf("resuming from cut %d: %w", c, err)
			}
			cut = c
		}
	}
	if s == nil {
		var err error
		if s, err = mpi.NewSession(cfg); err != nil {
			return err
		}
	}

	for k := cut; k < len(bodies); k++ {
		if err := s.RunPhase(bodies[k]); err != nil {
			return err
		}
		if ckpt == nil || k+1 == len(bodies) {
			continue
		}
		st, err := s.Snapshot()
		if err != nil {
			return fmt.Errorf("snapshot at cut %d: %w", k+1, err)
		}
		payload, err := json.Marshal(state)
		if err != nil {
			return fmt.Errorf("encoding cut %d payload: %w", k+1, err)
		}
		ckpt.Save(k+1, checkpoint.EncodeSession(&checkpoint.Session{
			Cut: k + 1, State: st, App: [][]byte{payload},
		}))
	}
	return nil
}
