package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hclocksync/internal/harness"
)

// Executor runs one job inside a worker process and returns the task's
// recomputed cache key and canonical-JSON result. ledger is the streaming
// sweep ledger the worker substitutes for a file-backed checkpointer: its
// per-task handle replays the request's resume snapshot through Latest and
// relays every Save to the coordinator as a cut frame. runexp's worker mode
// supplies an Executor that re-runs the suite-table row named in the request
// with the engine filtered down to the one task.
type Executor func(req JobRequest, ledger harness.Ledger) (key string, result json.RawMessage, err error)

// WorkerOptions tunes ServeWorker.
type WorkerOptions struct {
	// Heartbeat is the interval between hb frames while a job executes.
	// Zero means a 500ms default; negative disables heartbeats entirely
	// (tests use this to fake a wedged worker).
	Heartbeat time.Duration
	// Logf receives diagnostics (worker stderr). Nil discards them.
	Logf func(format string, args ...any)
}

const defaultHeartbeat = 500 * time.Millisecond

// ServeWorker is the worker side of the fabric: it reads JobRequests from
// in one line at a time, executes each through exec, and writes hello,
// heartbeat, cut, and result/error frames to out. It returns when in
// reaches EOF (the coordinator closed stdin or died) or a request fails to
// parse. Jobs are served strictly sequentially — one worker, one lease.
func ServeWorker(in io.Reader, out io.Writer, opts WorkerOptions, exec Executor) error {
	hb := opts.Heartbeat
	if hb == 0 {
		hb = defaultHeartbeat
	}
	w := &frameWriter{enc: json.NewEncoder(out)}
	w.send(Frame{Type: FrameHello, PID: os.Getpid()})

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req JobRequest
		if err := json.Unmarshal(line, &req); err != nil {
			return fmt.Errorf("fabric: malformed job request: %w", err)
		}
		if opts.Logf != nil {
			opts.Logf("fabric worker: job %d: %s/%s (entry %s)", req.ID, req.Suite, req.Task, req.Entry)
		}
		serveJob(w, hb, req, exec)
	}
	return sc.Err()
}

// maxLine bounds one protocol line in either direction. Resume snapshots
// ride inside lines as base64, so this must comfortably exceed the largest
// cut snapshot a suite saves.
const maxLine = 64 << 20

// serveJob executes one request: heartbeats on a timer, cut frames as the
// task saves snapshots, then exactly one result or error frame.
func serveJob(w *frameWriter, hb time.Duration, req JobRequest, exec Executor) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if hb > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(hb) //synclint:wallclock -- heartbeat pacing to the supervisor: liveness telemetry, never reaches results
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					w.send(Frame{Type: FrameHeartbeat, ID: req.ID})
				}
			}
		}()
	}

	key, result, err := exec(req, &streamLedger{req: req, w: w})
	if err == nil && req.Key != "" && key != req.Key {
		err = fmt.Errorf("cache key mismatch: coordinator expects %s, worker computed %s (code-version or config skew between processes)", req.Key, key)
	}
	close(stop)
	wg.Wait()

	if err != nil {
		w.send(Frame{Type: FrameError, ID: req.ID, Error: err.Error()})
		return
	}
	w.send(Frame{Type: FrameResult, ID: req.ID, Key: key, Result: result})
}

// frameWriter serializes frame writes from the job goroutine and the
// heartbeat ticker onto one stream. Write errors are deliberately dropped:
// a worker whose coordinator has vanished learns it at the next stdin read
// (EOF), and there is nobody left to tell meanwhile.
type frameWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (w *frameWriter) send(f Frame) {
	w.mu.Lock()
	_ = w.enc.Encode(f) // Encode appends the newline that frames the line
	w.mu.Unlock()
}

// streamLedger is the harness.Ledger a worker runs its engine with. It
// holds no state of its own: finished-result lookup and recording are the
// coordinator's business (a worker executes exactly one task and ships the
// result back in the result frame), while the per-task checkpoint handle
// bridges the task's cut traffic onto the wire.
type streamLedger struct {
	req JobRequest
	w   *frameWriter
}

func (l *streamLedger) Lookup(string, any) bool            { return false }
func (l *streamLedger) Record(string, string, string, any) {}

// Task returns the wire-bridging checkpoint handle for the one task this
// job executes, and nil for every other task of the decomposition — which
// the engine's filter skips anyway.
func (l *streamLedger) Task(suite, name string) harness.TaskCheckpoint {
	if suite != l.req.Suite || name != l.req.Task {
		return nil
	}
	return &streamCut{l: l}
}

// streamCut replays the request's resume snapshot and relays saves to the
// coordinator.
type streamCut struct {
	l *streamLedger
}

func (c *streamCut) Latest() (int, []byte, bool) {
	if len(c.l.req.ResumeSnap) == 0 {
		return 0, nil, false
	}
	return c.l.req.ResumeCut, c.l.req.ResumeSnap, true
}

func (c *streamCut) Save(cut int, snap []byte) {
	c.l.w.send(Frame{
		Type: FrameCut,
		ID:   c.l.req.ID,
		Cut:  cut,
		Snap: append([]byte(nil), snap...),
	})
}
