package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"hclocksync/internal/harness"
)

// startWorker runs ServeWorker over pipes and returns the request writer
// and a decoded-frame channel. The frame channel closes when the worker
// loop returns.
func startWorker(t *testing.T, opts WorkerOptions, exec Executor) (io.WriteCloser, <-chan Frame) {
	t.Helper()
	reqR, reqW := io.Pipe()
	frR, frW := io.Pipe()
	go func() {
		_ = ServeWorker(reqR, frW, opts, exec)
		frW.Close()
	}()
	frames := make(chan Frame, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(frR)
		sc.Buffer(make([]byte, 0, 64<<10), maxLine)
		for sc.Scan() {
			var f Frame
			if err := json.Unmarshal(sc.Bytes(), &f); err == nil {
				frames <- f
			}
		}
	}()
	t.Cleanup(func() { reqW.Close() })
	return reqW, frames
}

func sendJob(t *testing.T, w io.Writer, req JobRequest) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(append(raw, '\n')); err != nil {
		t.Fatal(err)
	}
}

func nextFrame(t *testing.T, frames <-chan Frame) Frame {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("frame stream closed early")
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a frame")
	}
	return Frame{}
}

func TestWorkerHelloThenResult(t *testing.T) {
	exec := func(req JobRequest, _ harness.Ledger) (string, json.RawMessage, error) {
		return req.Key, json.RawMessage(fmt.Sprintf(`{"task":%q}`, req.Task)), nil
	}
	w, frames := startWorker(t, WorkerOptions{Heartbeat: -1}, exec)

	if f := nextFrame(t, frames); f.Type != FrameHello || f.PID == 0 {
		t.Fatalf("first frame = %+v, want hello with a pid", f)
	}
	sendJob(t, w, JobRequest{Type: "job", ID: 7, Suite: "s", Task: "t", Key: "k7"})
	f := nextFrame(t, frames)
	if f.Type != FrameResult || f.ID != 7 || f.Key != "k7" {
		t.Fatalf("result frame = %+v", f)
	}
	if string(f.Result) != `{"task":"t"}` {
		t.Fatalf("result payload = %s", f.Result)
	}

	// Clean stdin close ends the serve loop and the frame stream.
	w.Close()
	if _, ok := <-frames; ok {
		t.Fatal("frame stream still open after stdin EOF")
	}
}

func TestWorkerKeyMismatchIsAnError(t *testing.T) {
	exec := func(req JobRequest, _ harness.Ledger) (string, json.RawMessage, error) {
		return "worker-key", json.RawMessage(`{}`), nil
	}
	w, frames := startWorker(t, WorkerOptions{Heartbeat: -1}, exec)
	nextFrame(t, frames) // hello
	sendJob(t, w, JobRequest{Type: "job", ID: 1, Suite: "s", Task: "t", Key: "coordinator-key"})
	f := nextFrame(t, frames)
	if f.Type != FrameError || f.ID != 1 {
		t.Fatalf("frame = %+v, want an error frame for job 1", f)
	}
	if want := "mismatch"; !contains(f.Error, want) {
		t.Errorf("error %q does not mention %q", f.Error, want)
	}
}

func TestWorkerExecErrorFrame(t *testing.T) {
	exec := func(JobRequest, harness.Ledger) (string, json.RawMessage, error) {
		return "", nil, fmt.Errorf("boom")
	}
	w, frames := startWorker(t, WorkerOptions{Heartbeat: -1}, exec)
	nextFrame(t, frames) // hello
	sendJob(t, w, JobRequest{Type: "job", ID: 2, Suite: "s", Task: "t"})
	if f := nextFrame(t, frames); f.Type != FrameError || f.Error != "boom" {
		t.Fatalf("frame = %+v, want error \"boom\"", f)
	}
}

func TestWorkerCutFramesAndResume(t *testing.T) {
	exec := func(req JobRequest, led harness.Ledger) (string, json.RawMessage, error) {
		tc := led.Task(req.Suite, req.Task)
		if tc == nil {
			return "", nil, fmt.Errorf("no checkpoint handle for the job's own task")
		}
		if led.Task("other", "task") != nil {
			return "", nil, fmt.Errorf("checkpoint handle leaked to a foreign task")
		}
		cut, snap, ok := tc.Latest()
		if !ok || cut != 3 || string(snap) != "resume-state" {
			return "", nil, fmt.Errorf("Latest() = (%d, %q, %v), want the request's snapshot", cut, snap, ok)
		}
		tc.Save(4, []byte("next-state"))
		return req.Key, json.RawMessage(fmt.Sprintf(`{"resumed_from":%d}`, cut)), nil
	}
	w, frames := startWorker(t, WorkerOptions{Heartbeat: -1}, exec)
	nextFrame(t, frames) // hello
	sendJob(t, w, JobRequest{
		Type: "job", ID: 9, Suite: "s", Task: "t", Key: "k",
		ResumeCut: 3, ResumeSnap: []byte("resume-state"),
	})
	f := nextFrame(t, frames)
	if f.Type != FrameCut || f.ID != 9 || f.Cut != 4 || string(f.Snap) != "next-state" {
		t.Fatalf("cut frame = %+v", f)
	}
	f = nextFrame(t, frames)
	if f.Type != FrameResult || string(f.Result) != `{"resumed_from":3}` {
		t.Fatalf("result frame = %+v", f)
	}
}

func TestWorkerHeartbeatsWhileJobRuns(t *testing.T) {
	exec := func(req JobRequest, _ harness.Ledger) (string, json.RawMessage, error) {
		time.Sleep(200 * time.Millisecond)
		return req.Key, json.RawMessage(`{}`), nil
	}
	w, frames := startWorker(t, WorkerOptions{Heartbeat: 20 * time.Millisecond}, exec)
	nextFrame(t, frames) // hello
	sendJob(t, w, JobRequest{Type: "job", ID: 5, Suite: "s", Task: "t"})
	beats := 0
	for {
		f := nextFrame(t, frames)
		if f.Type == FrameHeartbeat && f.ID == 5 {
			beats++
			continue
		}
		if f.Type == FrameResult {
			break
		}
		t.Fatalf("unexpected frame %+v", f)
	}
	if beats == 0 {
		t.Error("no heartbeats during a 200ms job at a 20ms interval")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
