package fabric

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hclocksync/internal/harness"
)

// workerEnv marks a re-execution of this test binary as a fabric worker:
// the one test that needs real processes (Close must reap them) spawns the
// binary itself with it set, and TestMain serves instead of testing.
const workerEnv = "FABRIC_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		if err := ServeWorker(os.Stdin, os.Stdout, WorkerOptions{}, echoExec); err != nil {
			fmt.Fprintln(os.Stderr, "test worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// The other pool tests run real ServeWorker loops in-process over pipes, so the
// whole protocol stack is exercised — framing, heartbeats, results — with
// only process creation faked. killing a testConn severs both pipes at
// once, which is what SIGKILL looks like from the coordinator's seat.

type testConn struct {
	slot int
	reqW *io.PipeWriter
	frR  *io.PipeReader
	ch   chan Frame
	done chan struct{}
	once sync.Once
}

func (c *testConn) send(req JobRequest) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, err = c.reqW.Write(append(raw, '\n'))
	return err
}

func (c *testConn) frames() <-chan Frame { return c.ch }

func (c *testConn) kill() {
	c.once.Do(func() {
		err := errors.New("killed")
		close(c.done)
		c.reqW.CloseWithError(err) // worker's stdin dies
		c.frR.CloseWithError(err)  // frame reader unblocks and closes ch
	})
}

func (c *testConn) pid() int { return c.slot }

// testFabric fakes process creation: each spawn wires a fresh ServeWorker
// through pipes and announces the conn on spawned so tests can kill
// specific workers mid-job.
type testFabric struct {
	spawned chan *testConn
}

func (tf *testFabric) starter(wopts WorkerOptions, exec Executor) starter {
	return func(slot int) (conn, error) {
		reqR, reqW := io.Pipe()
		frR, frW := io.Pipe()
		go func() {
			_ = ServeWorker(reqR, frW, wopts, exec)
			frW.Close()
		}()
		c := &testConn{slot: slot, reqW: reqW, frR: frR, ch: make(chan Frame, 64), done: make(chan struct{})}
		go func() {
			defer close(c.ch)
			sc := bufio.NewScanner(frR)
			sc.Buffer(make([]byte, 0, 64<<10), maxLine)
			for sc.Scan() {
				var f Frame
				if err := json.Unmarshal(sc.Bytes(), &f); err == nil && f.Type != "" {
					select {
					case c.ch <- f:
					case <-c.done:
						select {
						case c.ch <- f:
						default:
						}
					}
				}
			}
		}()
		tf.spawned <- c
		return c, nil
	}
}

// newTestPool builds a pool over in-process workers with fast, test-sized
// robustness timings (overridable through cfg).
func newTestPool(t *testing.T, cfg Config, wopts WorkerOptions, exec Executor) (*Pool, *testFabric) {
	t.Helper()
	tf := &testFabric{spawned: make(chan *testConn, 64)}
	cfg.starter = tf.starter(wopts, exec)
	if cfg.leaseTTL == 0 {
		cfg.leaseTTL = 2 * time.Second
	}
	if cfg.backoffBase == 0 {
		cfg.backoffBase = time.Millisecond
	}
	if cfg.backoffMax == 0 {
		cfg.backoffMax = 5 * time.Millisecond
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, tf
}

func awaitConn(t *testing.T, tf *testFabric) *testConn {
	t.Helper()
	select {
	case c := <-tf.spawned:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a worker spawn")
	}
	return nil
}

// echoExec resolves every job instantly with a payload naming the task.
func echoExec(req JobRequest, _ harness.Ledger) (string, json.RawMessage, error) {
	return req.Key, json.RawMessage(fmt.Sprintf(`{"task":%q}`, req.Task)), nil
}

func TestPoolRunsJobs(t *testing.T) {
	p, _ := newTestPool(t, Config{Workers: 2}, WorkerOptions{Heartbeat: -1}, echoExec)
	p.SetEntry("fig3")

	var wg sync.WaitGroup
	results := make([]json.RawMessage, 8)
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.RunTask("suite", fmt.Sprintf("run%d", i), fmt.Sprintf("key%d", i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if want := fmt.Sprintf(`{"task":"run%d"}`, i); string(results[i]) != want {
			t.Errorf("job %d result = %s, want %s", i, results[i], want)
		}
	}
	st := p.Stats()
	if st.Jobs != 8 || st.Retries != 0 || st.Poisoned != 0 || st.LostWorkers != 0 {
		t.Errorf("stats = %+v; want 8 clean jobs", st)
	}
}

// Close must not return while a worker process is still running or waiting
// to be reaped: every process the pool ever spawned has been waited on.
func TestCloseReapsWorkerProcesses(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate the test binary to re-execute as a worker: %v", err)
	}
	t.Setenv(workerEnv, "1")
	spawn := processStarter([]string{exe})
	var mu sync.Mutex
	var conns []*procConn
	p, err := NewPool(Config{Workers: 2, starter: func(slot int) (conn, error) {
		c, err := spawn(slot)
		if err == nil {
			mu.Lock()
			conns = append(conns, c.(*procConn))
			mu.Unlock()
		}
		return c, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetEntry("fig3")
	for i := 0; i < 4; i++ {
		task := fmt.Sprintf("run%d", i)
		raw, err := p.RunTask("suite", task, "key"+task)
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		if want := fmt.Sprintf(`{"task":%q}`, task); string(raw) != want {
			t.Errorf("%s result = %s, want %s", task, raw, want)
		}
	}
	p.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(conns) < 2 {
		t.Fatalf("%d worker processes spawned, want one per slot", len(conns))
	}
	for _, c := range conns {
		if c.cmd.ProcessState == nil {
			t.Errorf("worker pid %d not reaped when Close returned", c.pid())
		}
	}
}

func TestWorkerCrashTakeover(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	var calls atomic.Int64
	exec := func(req JobRequest, _ harness.Ledger) (string, json.RawMessage, error) {
		if calls.Add(1) == 1 {
			started <- struct{}{}
			<-release // hold the job until the test kills this worker
		}
		return req.Key, json.RawMessage(`{"ok":true}`), nil
	}
	p, tf := newTestPool(t, Config{Workers: 1}, WorkerOptions{Heartbeat: 10 * time.Millisecond}, exec)

	first := awaitConn(t, tf)
	resCh := make(chan error, 1)
	go func() {
		_, err := p.RunTask("s", "victim", "k")
		resCh <- err
	}()
	<-started
	first.kill() // SIGKILL from the coordinator's point of view

	if err := <-resCh; err != nil {
		t.Fatalf("job did not survive its worker: %v", err)
	}
	st := p.Stats()
	if st.LeaseTakeovers < 1 || st.Retries < 1 || st.LostWorkers < 1 || st.Spawns < 2 {
		t.Errorf("stats = %+v; want >=1 takeover, retry, lost worker, and a respawn", st)
	}
}

func TestHeartbeatKeepsSlowJobAlive(t *testing.T) {
	exec := func(req JobRequest, _ harness.Ledger) (string, json.RawMessage, error) {
		time.Sleep(400 * time.Millisecond) // several leases long
		return req.Key, json.RawMessage(`{}`), nil
	}
	p, _ := newTestPool(t, Config{Workers: 1, leaseTTL: 100 * time.Millisecond},
		WorkerOptions{Heartbeat: 20 * time.Millisecond}, exec)
	if _, err := p.RunTask("s", "slow", "k"); err != nil {
		t.Fatalf("slow-but-heartbeating job failed: %v", err)
	}
	if st := p.Stats(); st.LeaseTakeovers != 0 || st.Retries != 0 {
		t.Errorf("stats = %+v; a heartbeating job must never lose its lease", st)
	}
}

func TestHungWorkerLeaseExpires(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	var calls atomic.Int64
	exec := func(req JobRequest, _ harness.Ledger) (string, json.RawMessage, error) {
		if calls.Add(1) == 1 {
			<-release // wedged: no heartbeats (disabled below), no result
		}
		return req.Key, json.RawMessage(`{}`), nil
	}
	// Heartbeats off: a silent worker is indistinguishable from a hung one,
	// which is exactly what the lease exists to bound.
	p, _ := newTestPool(t, Config{Workers: 1, leaseTTL: 80 * time.Millisecond},
		WorkerOptions{Heartbeat: -1}, exec)
	if _, err := p.RunTask("s", "wedge", "k"); err != nil {
		t.Fatalf("job did not survive the hung worker: %v", err)
	}
	if st := p.Stats(); st.LeaseTakeovers < 1 {
		t.Errorf("stats = %+v; want a lease takeover", st)
	}
}

func TestPoisonedJobQuarantined(t *testing.T) {
	exec := func(JobRequest, harness.Ledger) (string, json.RawMessage, error) {
		return "", nil, fmt.Errorf("deterministic failure")
	}
	p, _ := newTestPool(t, Config{Workers: 1, maxAttempts: 3}, WorkerOptions{Heartbeat: -1}, exec)
	_, err := p.RunTask("s", "bad", "k")
	var perr *PoisonError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want a *PoisonError", err)
	}
	if perr.Attempts != 3 || perr.Task != "bad" {
		t.Errorf("poison = %+v", perr)
	}
	st := p.Stats()
	if st.Poisoned != 1 || st.Retries != 2 {
		t.Errorf("stats = %+v; want 1 poisoned after 2 retries", st)
	}
}

func TestDegradesToSurvivingWorker(t *testing.T) {
	// Two of three slots can never spawn; the sweep must complete on the
	// survivor.
	tf := &testFabric{spawned: make(chan *testConn, 64)}
	working := tf.starter(WorkerOptions{Heartbeat: -1}, echoExec)
	cfg := Config{
		Workers:     3,
		maxRespawns: 2,
		leaseTTL:    2 * time.Second,
		backoffBase: time.Millisecond,
		backoffMax:  5 * time.Millisecond,
	}
	cfg.starter = func(slot int) (conn, error) {
		if slot != 2 {
			return nil, fmt.Errorf("slot %d is cursed", slot)
		}
		return working(slot)
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.RunTask("s", fmt.Sprintf("run%d", i), "k")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d failed on the surviving worker: %v", i, err)
		}
	}
}

func TestAllWorkersLostFailsOutstandingJobs(t *testing.T) {
	cfg := Config{
		Workers:     2,
		maxRespawns: 2,
		leaseTTL:    time.Second,
	}
	cfg.starter = func(slot int) (conn, error) {
		return nil, fmt.Errorf("no workers today")
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if _, err := p.RunTask("s", "doomed", "k"); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestClosedPoolRejectsJobs(t *testing.T) {
	p, _ := newTestPool(t, Config{Workers: 1}, WorkerOptions{Heartbeat: -1}, echoExec)
	p.Close()
	if _, err := p.RunTask("s", "late", "k"); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

// A dispatch racing a worker's death is charged to the slot, not the job:
// even maxAttempts consecutive dead-on-arrival workers must not poison a
// job that never got to run.
func TestDispatchFailureDoesNotBurnAttempts(t *testing.T) {
	tf := &testFabric{spawned: make(chan *testConn, 64)}
	real := tf.starter(WorkerOptions{Heartbeat: -1}, echoExec)
	var spawns atomic.Int64
	p, err := NewPool(Config{
		Workers: 1, maxAttempts: 2, maxRespawns: 8,
		leaseTTL: 2 * time.Second, backoffBase: time.Millisecond, backoffMax: 5 * time.Millisecond,
		starter: func(slot int) (conn, error) {
			c, err := real(slot)
			if err != nil {
				return nil, err
			}
			if spawns.Add(1) <= 3 {
				c.(*testConn).kill() // dead on arrival: every send fails
			}
			return c, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.SetEntry("e")

	raw, err := p.RunTask("s", "run0", "k")
	if err != nil {
		t.Fatalf("job failed despite a healthy fourth worker: %v", err)
	}
	if string(raw) != `{"task":"run0"}` {
		t.Fatalf("result = %s", raw)
	}
	st := p.Stats()
	if st.Poisoned != 0 {
		t.Errorf("Poisoned = %d, want 0 — dispatch failures burned the attempt budget", st.Poisoned)
	}
	if st.Retries != 0 {
		t.Errorf("Retries = %d, want 0 — a dispatch failure is not a job retry", st.Retries)
	}
	if st.LostWorkers < 3 {
		t.Errorf("LostWorkers = %d, want >= 3 dead-on-arrival conns", st.LostWorkers)
	}
}
