package fabric

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"sync"
)

// processStarter spawns real worker processes from command: stdin carries
// JobRequests, stdout carries Frames, stderr passes through to the
// coordinator's stderr so worker diagnostics stay visible.
func processStarter(command []string) starter {
	return func(slot int) (conn, error) {
		cmd := exec.Command(command[0], command[1:]...)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		c := &procConn{cmd: cmd, in: stdin, ch: make(chan Frame, 64), done: make(chan struct{}), reaped: make(chan struct{})}
		go c.read(stdout)
		return c, nil
	}
}

type procConn struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	ch     chan Frame
	done   chan struct{}
	reaped chan struct{} // closed by read once cmd.Wait has returned
	once   sync.Once
}

// read pumps the worker's stdout into the frame channel, closing it at
// EOF — process death and clean exit look identical to the supervisor —
// and then reaps the process. Sends race the kill signal rather than
// blocking forever on an abandoned conn; only the reader ever sends, so
// frames already delivered stay ordered and are never stolen from the
// supervisor.
func (c *procConn) read(stdout io.Reader) {
	defer close(c.reaped)
	defer close(c.ch)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	for sc.Scan() {
		var f Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err == nil && f.Type != "" {
			select {
			case c.ch <- f:
			case <-c.done:
				// Killed conn: best-effort delivery (the supervisor may
				// still drain buffered frames), never a blocked reader.
				select {
				case c.ch <- f:
				default:
				}
			}
		}
	}
	_ = c.cmd.Wait()
}

func (c *procConn) send(req JobRequest) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, err = c.in.Write(append(raw, '\n'))
	return err
}

func (c *procConn) frames() <-chan Frame { return c.ch }

// kill terminates the worker and returns once it has been reaped;
// idempotent. Closing done releases the reader from any pending frame send
// once the supervisor abandons the conn; the kill signal closes the
// worker's stdout, which ends the reader's scan, and the reader then waits
// on the process. Joining it here is what lets Pool.Close promise that no
// worker process — zombie or live — outlasts it.
func (c *procConn) kill() {
	c.once.Do(func() {
		close(c.done)
		_ = c.in.Close()
		if c.cmd.Process != nil {
			_ = c.cmd.Process.Kill()
		}
	})
	<-c.reaped
}

func (c *procConn) pid() int {
	if c.cmd.Process == nil {
		return 0
	}
	return c.cmd.Process.Pid
}
