package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"hclocksync/internal/harness"
)

// FuzzServeWorker feeds arbitrary bytes to a worker as its stdin, with
// heartbeats off and a stub executor. The worker must return rather than
// panic, every line it writes must decode as a Frame (hello first), every
// request it parsed must get exactly one result or error frame, and input
// holding a malformed request line must end in an error.
func FuzzServeWorker(f *testing.F) {
	line := func(r JobRequest) string {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	ok := JobRequest{Type: "job", ID: 1, Entry: "fig3", Suite: "syncaccuracy", Task: "t", Key: "key:t"}
	resume := JobRequest{Type: "job", ID: 2, Entry: "fig7", Suite: "fig7", Task: "t", Key: "key:t", ResumeCut: 3, ResumeSnap: []byte{1, 2, 3}}
	skew := JobRequest{Type: "job", ID: 3, Suite: "s", Task: "u", Key: "another key"}
	fail := JobRequest{Type: "job", ID: 4, Suite: "s", Task: "fail"}
	f.Add([]byte(""))
	f.Add([]byte(line(ok)))
	f.Add([]byte(line(ok) + "\n  \r\n" + line(resume) + line(skew) + line(fail)))
	f.Add([]byte(line(ok) + `{"type":"job","id":5`))
	f.Add([]byte(line(ok) + "not json\n" + line(resume)))
	f.Add([]byte(`{"id":"one"}` + "\n"))
	f.Add([]byte("null\n[]\n"))
	f.Add([]byte(`{"resume_snap":"!!"}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		exec := func(req JobRequest, ledger harness.Ledger) (string, json.RawMessage, error) {
			if cut := ledger.Task(req.Suite, req.Task); cut != nil {
				if n, snap, ok := cut.Latest(); ok {
					cut.Save(n+1, snap)
				}
			}
			if req.Task == "fail" {
				return "", nil, errors.New("stub failure")
			}
			return "key:" + req.Task, json.RawMessage(`{"ok":true}`), nil
		}
		var out bytes.Buffer
		err := ServeWorker(bytes.NewReader(in), &out, WorkerOptions{Heartbeat: -1}, exec)

		// The worker's own reading of the input: requests up to the first
		// line that does not parse.
		jobs, malformed := 0, false
		sc := bufio.NewScanner(bytes.NewReader(in))
		sc.Buffer(nil, maxLine)
		for sc.Scan() {
			l := bytes.TrimSpace(sc.Bytes())
			if len(l) == 0 {
				continue
			}
			var req JobRequest
			if json.Unmarshal(l, &req) != nil {
				malformed = true
				break
			}
			jobs++
		}
		if malformed != (err != nil) {
			t.Fatalf("malformed input: %v, ServeWorker error: %v", malformed, err)
		}

		terminal := 0
		frames := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
		for i, l := range frames {
			var fr Frame
			if err := json.Unmarshal(l, &fr); err != nil {
				t.Fatalf("output line %d is not a frame: %q", i, l)
			}
			if (i == 0) != (fr.Type == FrameHello) {
				t.Fatalf("output line %d is a %q frame; hello comes first and only once", i, fr.Type)
			}
			if fr.Type == FrameResult || fr.Type == FrameError {
				terminal++
			}
		}
		if terminal != jobs {
			t.Fatalf("%d requests parsed but %d result/error frames written", jobs, terminal)
		}
	})
}
