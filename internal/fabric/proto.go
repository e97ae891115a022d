package fabric

import "encoding/json"

// The wire protocol is line-delimited JSON in both directions: the
// coordinator writes one JobRequest per line to the worker's stdin, the
// worker writes Frames to its stdout. Text-based framing keeps the worker
// debuggable (`runexp -worker` can be driven by hand) and makes torn writes
// from a killed process harmless — an incomplete trailing line simply never
// parses, and by then the process-exit signal has already superseded it.

// Frame types, worker → coordinator.
const (
	// FrameHello is sent once on worker boot, before any job.
	FrameHello = "hello"
	// FrameHeartbeat is sent on a timer while a job executes, so the
	// coordinator can tell a slow job from a hung worker.
	FrameHeartbeat = "hb"
	// FrameCut carries a phased task's checkpoint snapshot at a cut
	// boundary; the coordinator records it for crash migration.
	FrameCut = "cut"
	// FrameResult terminates a job successfully with its canonical-JSON
	// result.
	FrameResult = "result"
	// FrameError terminates a job with a failure message.
	FrameError = "error"
)

// JobRequest asks a worker to execute one task of one suite. The worker
// does not receive the task's config or derived seed directly — it re-runs
// the named suite-table row's own decomposition (filtered down to Task) so
// both are reconstructed from first principles in the child process, and
// Key lets it prove it reconstructed the same task the coordinator meant.
type JobRequest struct {
	Type string `json:"type"` // always "job"
	// ID correlates every Frame the worker emits back to this job.
	ID int64 `json:"id"`
	// Entry is the suite's experiments.Suites() row name ("fig3", "faults", …).
	// It differs from Suite, the harness suite name used in seeds and cache
	// keys ("syncaccuracy", "faults", …): several rows decompose
	// into the same harness suite, so both are needed to replay one task.
	Entry string `json:"entry"`
	// Suite and Task name the one task to execute within the entry's
	// decomposition; every other task is filtered out and skipped.
	Suite string `json:"suite"`
	Task  string `json:"task"`
	// Scale and Seed replicate the coordinator's -scale and -seed so the
	// worker rebuilds an identical suite configuration.
	Scale string `json:"scale,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Key is the coordinator's cache key for the task. The worker recomputes
	// the key from its own decomposition; a mismatch means the two processes
	// disagree about the task's identity (code-version or config skew) and
	// fails the job loudly instead of returning a silently wrong result.
	Key string `json:"key"`
	// ResumeCut and ResumeSnap, when set, are the last quiescent cut of a
	// previous attempt (or of a -restore'd coordinator ledger); the worker's
	// task resumes from them instead of starting over.
	ResumeCut  int    `json:"resume_cut,omitempty"`
	ResumeSnap []byte `json:"resume_snap,omitempty"`
}

// Frame is one worker → coordinator message. Every frame from the owning
// worker renews the job's lease, whatever its type.
type Frame struct {
	Type string `json:"type"`
	// ID echoes the JobRequest this frame belongs to; hello frames carry
	// none.
	ID int64 `json:"id,omitempty"`
	// PID identifies the worker process in a hello frame.
	PID int `json:"pid,omitempty"`
	// Cut and Snap carry a checkpoint snapshot in a cut frame.
	Cut  int    `json:"cut,omitempty"`
	Snap []byte `json:"snap,omitempty"`
	// Key is the worker's recomputed cache key in a result frame.
	Key string `json:"key,omitempty"`
	// Result is the task's canonical-JSON result in a result frame.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure message in an error frame.
	Error string `json:"error,omitempty"`
}
