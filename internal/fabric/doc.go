// Package fabric is the fault-tolerant sweep fabric: a coordinator that
// farms the tasks of an experiment suite out to a pool of supervised
// child-process workers and keeps the sweep correct — and byte-identical to
// an in-process run — while those workers crash, hang, or are killed out
// from under it.
//
// The division of labour with internal/harness is deliberate: the harness
// engine owns *what* to run (suite decomposition, seed derivation, cache
// keys, manifests) and this package owns *where* and *how reliably*. The
// engine hands each task it would have computed locally to a Pool through
// the harness.Remote interface; the pool owns every robustness decision —
// dispatch, failure detection, retry, and migration — and hands back the
// worker's canonical-JSON result, the same representation a cache hit is
// served from, which is why fabric execution cannot perturb output bytes.
//
// # Topology
//
// One coordinator process (runexp with -fabric N) supervises N worker
// processes (the same binary re-exec'ed with -worker). Workers are
// stateless job servers speaking a line-delimited JSON protocol on
// stdin/stdout (proto.go): the coordinator writes one JobRequest per line;
// the worker answers with a stream of Frames — hello on boot, hb
// heartbeats while a job runs, cut for every checkpoint snapshot a phased
// task saves, and finally exactly one result or error frame per job.
// A worker executes a job by re-running the suite's own decomposition with
// a task filter, so the task's config and derived seed are reconstructed
// from first principles in the child; the coordinator's cache key travels
// in the request and the worker recomputes and compares it, turning any
// version or config skew between the two processes into a loud error
// instead of a silently wrong (and wrongly cached) result.
//
// # Failure model and recovery
//
// Each worker slot runs a supervisor goroutine that spawns the process,
// leases it one job at a time, and watches two failure signals: process
// death (stdout EOF) and lease expiry — no frame of any kind for 10 s,
// which catches the worker that is alive but wedged. Heartbeats exist so
// that a *slow* job is distinguishable from a *hung* worker: a healthy
// worker heartbeats throughout execution and its lease renews on every
// frame. On either failure signal the supervisor kills the process,
// requeues the job (a lease takeover), and respawns a fresh worker within
// a bounded respawn budget. Requeued jobs back off exponentially with
// deterministic, seed-derived jitter (backoff.go) and are capped at five
// attempts, after which the job is quarantined as poisoned — a typed
// error naming the task and its last failure — rather than livelocking the
// sweep. Saving a *new* cut resets a job's attempt budget: a task that
// makes forward progress between crashes is being murdered, not poisoned,
// and must not be quarantined no matter how often the chaos schedule kills
// its host.
//
// Phased tasks get one more guarantee: their cut snapshots flow back to
// the coordinator as they are saved, are mirrored into the coordinator's
// own sweep ledger (runexp -checkpoint), and — when the job is redispatched
// after a failure — travel to the adopting worker in the JobRequest, so
// the task resumes mid-run from its last quiescent cut exactly as a
// -restore'd in-process run would. The pool also consults the ledger
// mirror on first dispatch, so a coordinator restarted with -restore ships
// inherited cuts to its new workers.
//
// The pool degrades gracefully: any number of worker slots may exhaust
// their respawn budgets and the sweep still completes on the survivors.
// Only when the *last* slot dies does the pool fail outstanding jobs with
// ErrNoWorkers.
//
// # Determinism
//
// Nothing in this package touches result bytes. Task seeds derive from
// (suite, seed key, base seed) identically in coordinator and worker;
// retries re-run a pure function; resumed phased tasks follow the same
// phased schedule the checkpointing code already pins with golden hashes.
// scripts/fabric_chaos.sh exercises exactly this claim: a sweep under
// -fabric with workers SIGKILLed on a schedule must byte-match an
// undisturbed run. Wall-clock time appears only in robustness policy
// (leases, heartbeats, backoff sleeps) — which is why this package is not
// on the synclint guarded list — never in anything a result hash covers.
package fabric
