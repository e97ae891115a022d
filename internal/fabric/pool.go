package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hclocksync/internal/harness"
)

// Config parameterizes a Pool.
type Config struct {
	// Workers is the number of worker slots (child processes kept alive
	// concurrently). Values below 1 are treated as 1.
	Workers int
	// Command launches one worker process: argv[0] plus arguments,
	// typically the coordinator's own executable with -worker. Required
	// unless a test installs its own starter.
	Command []string
	// Scale and Seed are copied into every JobRequest so workers rebuild
	// the coordinator's suite configuration exactly; they mirror runexp's
	// -scale and -seed.
	Scale string
	Seed  int64
	// leaseTTL is how long a dispatched job may go without any frame from
	// its worker before the lease is revoked and the job reassigned.
	// Zero means 10s. Heartbeats renew the lease, so this bounds wedge
	// detection, not job duration. Like the other unexported bounds below it
	// has one production value; only the in-package tests shorten it.
	leaseTTL time.Duration
	// maxAttempts caps executions of one job before it is quarantined as
	// poisoned. Zero means 5. Saving a new cut resets the count — forward
	// progress is never poisoned.
	maxAttempts int
	// backoffBase and backoffMax bound the exponential retry backoff;
	// zero means 50ms and 2s. JitterSeed seeds the deterministic jitter.
	backoffBase time.Duration
	backoffMax  time.Duration
	JitterSeed  int64
	// maxRespawns caps process (re)spawns per worker slot. Zero means 8.
	// A slot that exhausts it goes dark; the sweep continues on the rest.
	maxRespawns int
	// Cuts, when non-nil, is the coordinator-side mirror of workers' cut
	// snapshots — typically the -checkpoint ledger's Task method — so the
	// coordinator's own crash ledger stays current, and the source of
	// inherited resume snapshots on first dispatch after -restore.
	Cuts func(suite, name string) harness.TaskCheckpoint
	// Logf receives supervision events (spawns, takeovers, retries). Nil
	// discards them.
	Logf func(format string, args ...any)

	// starter overrides process creation; tests install in-process workers
	// here. Nil means spawning Command.
	starter starter
}

const (
	defaultLeaseTTL    = 10 * time.Second
	defaultMaxAttempts = 5
	defaultMaxRespawns = 8
	spawnRetryDelay    = 100 * time.Millisecond
)

// Stats is the pool's robustness accounting, published into the run
// manifest so a chaos run can prove its failures actually happened.
type Stats struct {
	// Workers is the configured slot count.
	Workers int `json:"workers"`
	// Spawns counts worker processes successfully started, initial and
	// replacement alike.
	Spawns int `json:"spawns"`
	// Jobs counts tasks submitted to the pool.
	Jobs int `json:"jobs"`
	// Retries counts redispatches after a failed attempt.
	Retries int `json:"retries"`
	// LeaseTakeovers counts leases revoked because the owning worker died
	// or went silent past its lease.
	LeaseTakeovers int `json:"lease_takeovers"`
	// LedgerMigrations counts dispatches that shipped a resume snapshot —
	// a phased job adopted mid-run by a new worker.
	LedgerMigrations int `json:"ledger_migrations"`
	// Poisoned counts jobs quarantined after exhausting maxAttempts.
	Poisoned int `json:"poisoned"`
	// LostWorkers counts worker processes lost to death or lease expiry.
	LostWorkers int `json:"lost_workers"`
}

// ErrNoWorkers fails outstanding jobs when every worker slot has exhausted
// its respawn budget — the one failure the pool cannot degrade past.
var ErrNoWorkers = errors.New("fabric: all workers lost and respawn budget exhausted")

// ErrPoolClosed rejects jobs submitted after Close.
var ErrPoolClosed = errors.New("fabric: pool closed")

// PoisonError reports a job quarantined after repeatedly failing without
// progress; Unwrap exposes the final attempt's failure.
type PoisonError struct {
	Suite    string
	Task     string
	Attempts int
	Last     error
}

func (e *PoisonError) Error() string {
	return fmt.Sprintf("fabric: job %s/%s poisoned after %d failed attempts: %v", e.Suite, e.Task, e.Attempts, e.Last)
}

func (e *PoisonError) Unwrap() error { return e.Last }

// remoteError marks a failure the worker itself reported in an error
// frame — the process is healthy, the job is not. It still costs the
// worker its process (simplest way to guarantee a clean slate), but it is
// not a lease takeover: nobody went silent.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return e.msg }

// dispatchError marks a send that never reached the worker — typically a
// dispatch racing the worker's death. The job was never leased, so the
// failure is charged to the slot (respawn), not to the job's attempt
// budget; a kill storm must not poison jobs that never got to run.
type dispatchError struct{ err error }

func (e *dispatchError) Error() string { return fmt.Sprintf("dispatch failed: %v", e.err) }
func (e *dispatchError) Unwrap() error { return e.err }

// conn is one live worker process from the supervisor's point of view.
// frames() yields everything the worker says and closes when it dies;
// kill() must be idempotent and must unblock a pending frames() read.
type conn interface {
	send(req JobRequest) error
	frames() <-chan Frame
	kill()
	pid() int
}

// starter creates the worker process for a slot.
type starter func(slot int) (conn, error)

// job is one task in flight through the pool.
type job struct {
	id    int64
	entry string
	suite string
	task  string
	key   string

	// Owned by whichever supervisor holds the job; a job is never held by
	// two supervisors at once (requeue happens-before redispatch).
	attempts int // failures since the last new cut
	maxCut   int // highest cut ever saved, for the progress reset
	cut      int // latest snapshot, shipped to the adopting worker
	snap     []byte

	once   sync.Once
	done   chan struct{}
	result json.RawMessage
	err    error
}

// complete resolves the job exactly once, whether from its owning
// supervisor, the poison path, or a pool-wide shutdown.
func (j *job) complete(result json.RawMessage, err error) {
	j.once.Do(func() {
		j.result, j.err = result, err
		close(j.done)
	})
}

// Pool dispatches jobs to supervised worker processes. It implements
// harness.Remote, so plugging it into an engine's Options.Remote routes
// every non-cached task of a sweep through the fabric.
type Pool struct {
	cfg   Config
	start starter
	q     *jobQueue

	entry  atomic.Value // string: current suite-table row for SetEntry
	nextID atomic.Int64
	alive  atomic.Int64
	closed atomic.Bool
	wg     sync.WaitGroup

	mu    sync.Mutex // guards stats
	stats Stats
}

// NewPool starts cfg.Workers supervisors, each spawning its worker process
// immediately. Workers sit idle until jobs arrive via RunTask.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.leaseTTL <= 0 {
		cfg.leaseTTL = defaultLeaseTTL
	}
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = defaultMaxAttempts
	}
	if cfg.maxRespawns <= 0 {
		cfg.maxRespawns = defaultMaxRespawns
	}
	start := cfg.starter
	if start == nil {
		if len(cfg.Command) == 0 {
			return nil, errors.New("fabric: Config.Command is required")
		}
		start = processStarter(cfg.Command)
	}
	p := &Pool{cfg: cfg, start: start, q: newJobQueue()}
	p.stats.Workers = cfg.Workers // not yet shared: no lock needed
	p.alive.Store(int64(cfg.Workers))
	for slot := 0; slot < cfg.Workers; slot++ {
		p.wg.Add(1)
		go p.supervise(slot)
	}
	return p, nil
}

// SetEntry names the suite-table row whose tasks subsequent RunTask calls
// belong to. runexp calls it before each suite of a run; suites execute
// sequentially, so a plain store suffices.
func (p *Pool) SetEntry(name string) { p.entry.Store(name) }

// RunTask implements harness.Remote: it enqueues the task as a fabric job
// and blocks until a worker returns its result, the job is poisoned, or
// the pool dies. Workers re-derive the task's seed from the suite
// decomposition; the cache key (which embeds the seed) is what pins
// agreement between the processes.
func (p *Pool) RunTask(suite, name, key string) (json.RawMessage, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	entry, _ := p.entry.Load().(string)
	j := &job{
		id:    p.nextID.Add(1),
		entry: entry,
		suite: suite,
		task:  name,
		key:   key,
		done:  make(chan struct{}),
	}
	// A coordinator restarted with -restore may already hold a cut for
	// this task; inherit it so the first dispatch resumes mid-run.
	if p.cfg.Cuts != nil {
		if tc := p.cfg.Cuts(suite, name); tc != nil {
			if cut, snap, ok := tc.Latest(); ok {
				j.cut, j.maxCut = cut, cut
				j.snap = append([]byte(nil), snap...)
			}
		}
	}
	p.bump(func(s *Stats) { s.Jobs++ })
	p.q.push(j)
	<-j.done
	return j.result, j.err
}

// Stats returns a snapshot of the pool's robustness counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close shuts the pool down: pending jobs fail with ErrPoolClosed (there
// are none in normal use — the engine joins every task before the
// coordinator closes the pool), workers are killed, and supervisors
// joined.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.q.shutdown(ErrPoolClosed)
	p.wg.Wait()
}

func (p *Pool) bump(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// supervise owns one worker slot: spawn, drive until lost, respawn —
// within budget. When the last slot gives up, outstanding jobs fail
// rather than hang.
func (p *Pool) supervise(slot int) {
	defer p.wg.Done()
	defer func() {
		if p.alive.Add(-1) == 0 && !p.closed.Load() {
			p.q.shutdown(ErrNoWorkers)
		}
	}()
	for spawns := 0; spawns < p.cfg.maxRespawns; spawns++ {
		if p.closed.Load() {
			return
		}
		c, err := p.start(slot)
		if err != nil {
			p.logf("fabric: worker[%d] spawn failed: %v", slot, err)
			time.Sleep(spawnRetryDelay) //synclint:wallclock -- supervision pacing: spawn retry delay never reaches results, which are pinned byte-identical under the SIGKILL chaos schedule
			continue
		}
		p.bump(func(s *Stats) { s.Spawns++ })
		p.logf("fabric: worker[%d] up (pid %d)", slot, c.pid())
		if done := p.drive(c, slot); done {
			return
		}
		p.bump(func(s *Stats) { s.LostWorkers++ })
	}
	p.logf("fabric: worker[%d] exhausted its respawn budget; slot going dark", slot)
}

// drive leases jobs to one worker until the worker fails (respawn: returns
// false) or the queue shuts down (returns true).
func (p *Pool) drive(c conn, slot int) (done bool) {
	defer c.kill()
	for {
		j, ok := p.q.pop()
		if !ok {
			return true
		}
		if err := p.runJob(c, j); err != nil {
			p.logf("fabric: worker[%d] failed %s/%s: %v", slot, j.suite, j.task, err)
			var derr *dispatchError
			if errors.As(err, &derr) {
				// The worker was already gone when the job was handed to
				// it; requeue untouched and let the slot respawn.
				p.q.push(j)
				return false
			}
			var rerr *remoteError
			p.retry(j, err, !errors.As(err, &rerr))
			return false
		}
	}
}

// runJob dispatches one job on one worker and pumps frames until the job
// resolves or the lease lapses. Any frame from the worker renews the
// lease; only result resolves the job successfully.
func (p *Pool) runJob(c conn, j *job) error {
	req := JobRequest{
		Type:  "job",
		ID:    j.id,
		Entry: j.entry,
		Suite: j.suite,
		Task:  j.task,
		Scale: p.cfg.Scale,
		Seed:  p.cfg.Seed,
		Key:   j.key,
	}
	if len(j.snap) > 0 {
		req.ResumeCut, req.ResumeSnap = j.cut, j.snap
	}
	if err := c.send(req); err != nil {
		return &dispatchError{err}
	}
	if len(j.snap) > 0 {
		p.bump(func(s *Stats) { s.LedgerMigrations++ })
		p.logf("fabric: migrating %s/%s ledger (cut %d) to a new worker", j.suite, j.task, j.cut)
	}

	lease := time.NewTimer(p.cfg.leaseTTL) //synclint:wallclock -- lease liveness timer: ownership timing affects which worker computes a job, never the job bytes (pinned by the chaos golden)
	defer lease.Stop()
	renew := func() {
		if !lease.Stop() {
			select {
			case <-lease.C:
			default:
			}
		}
		lease.Reset(p.cfg.leaseTTL)
	}

	for {
		select {
		case f, ok := <-c.frames():
			if !ok {
				return errors.New("worker exited mid-job")
			}
			renew()
			if f.ID != j.id {
				continue // hello, or noise; still proof of life
			}
			switch f.Type {
			case FrameHeartbeat:
			case FrameCut:
				j.cut = f.Cut
				j.snap = append([]byte(nil), f.Snap...)
				if f.Cut > j.maxCut {
					// New ground: the task is making forward progress
					// between failures, so it can never be poisoned.
					j.maxCut = f.Cut
					j.attempts = 0
				}
				if p.cfg.Cuts != nil {
					if tc := p.cfg.Cuts(j.suite, j.task); tc != nil {
						tc.Save(f.Cut, f.Snap)
					}
				}
			case FrameResult:
				if f.Key != "" && f.Key != j.key {
					return &remoteError{fmt.Sprintf("worker returned key %s for job keyed %s", f.Key, j.key)}
				}
				j.complete(f.Result, nil)
				return nil
			case FrameError:
				return &remoteError{f.Error}
			}
		case <-lease.C:
			return fmt.Errorf("lease expired: no frame for %v", p.cfg.leaseTTL)
		}
	}
}

// retry requeues a failed job with deterministic backoff, or poisons it
// once its attempt budget is spent.
func (p *Pool) retry(j *job, cause error, takeover bool) {
	j.attempts++
	if takeover {
		p.bump(func(s *Stats) { s.LeaseTakeovers++ })
	}
	if j.attempts >= p.cfg.maxAttempts {
		p.bump(func(s *Stats) { s.Poisoned++ })
		j.complete(nil, &PoisonError{Suite: j.suite, Task: j.task, Attempts: j.attempts, Last: cause})
		return
	}
	p.bump(func(s *Stats) { s.Retries++ })
	d := backoffDelay(p.cfg.backoffBase, p.cfg.backoffMax, p.cfg.JitterSeed, j.suite+"/"+j.task, j.attempts)
	p.logf("fabric: retrying %s/%s (attempt %d/%d) in %v", j.suite, j.task, j.attempts+1, p.cfg.maxAttempts, d)
	time.AfterFunc(d, func() { p.q.push(j) }) //synclint:wallclock -- retry backoff pacing: the delay is deterministic, the firing time only schedules work and never reaches results
}

// jobQueue is an unbounded FIFO with a terminal failure state: after
// shutdown, queued and future jobs resolve immediately with the shutdown
// error instead of waiting for workers that will never come.
type jobQueue struct {
	mu    sync.Mutex // guards items and err
	cond  *sync.Cond
	items []*job
	err   error
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *jobQueue) push(j *job) {
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		j.complete(nil, err)
		return
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	q.mu.Unlock()
}

// pop blocks until a job is available (true) or the queue has shut down
// (false).
func (q *jobQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && q.err == nil {
		q.cond.Wait()
	}
	if len(q.items) > 0 {
		j := q.items[0]
		q.items = q.items[1:]
		return j, true
	}
	return nil, false
}

func (q *jobQueue) shutdown(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	} else {
		err = q.err
	}
	items := q.items
	q.items = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, j := range items {
		j.complete(nil, err)
	}
}
