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
// recomputed cache key and canonical-JSON result. runexp's worker mode
// supplies an Executor that re-runs the suite-table row named in the request
// with the engine filtered down to the one task. ServeWorker passes a nil
// ledger: finished results are the coordinator's to record, and a job
// that dies reruns from its start.
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
// heartbeat, and result/error frames to out. It returns when in
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

// maxLine bounds one protocol line in either direction. The longest line is
// a result frame, whose canonical JSON grows with the task's per-rank rows
// (an FT task reports every rank); the bound leaves that ample room while
// still refusing a runaway line.
const maxLine = 64 << 20

// serveJob executes one request: heartbeats on a timer, then exactly one
// result or error frame.
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

	key, result, err := exec(req, nil)
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
