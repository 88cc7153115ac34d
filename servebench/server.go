package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one nocap-serve process started by the benchmark.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	dataDir string
	done    chan struct{} // closed when the process's stderr reaches EOF

	mu   sync.Mutex
	tail []string // last log lines, for error reports

	stopOnce sync.Once
	stopErr  error
}

const logTail = 20

// startServer launches bin on a loopback port the kernel picks and
// returns once /readyz answers 200. dataDir, when set, is created empty
// and passed as -data-dir; stop removes it.
func startServer(bin string, args []string, dataDir string) (*server, error) {
	argv := append([]string{"-addr", "127.0.0.1:0"}, args...)
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		argv = append(argv, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, argv...)
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, dataDir: dataDir, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go s.readLog(stderr, addrc)

	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("nocap-serve exited before listening: %s", s.logs())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("nocap-serve did not listen within 30s: %s", s.logs())
	}
	if err := s.awaitReady(60 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// readLog keeps the last log lines and reports the bound address from
// the "listening on ADDR (" line. It returns at EOF, when the process
// has exited.
func (s *server) readLog(r io.Reader, addrc chan<- string) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.tail = append(s.tail, line)
		if len(s.tail) > logTail {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			select {
			case addrc <- addr:
			default:
			}
		}
	}
}

func (s *server) logs() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

func (s *server) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nocap-serve not ready within %v: %s", limit, s.logs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM (SIGKILL after 20s), waits for the
// process to exit and removes its data directory. It is safe to call
// more than once.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		if err := s.cmd.Wait(); err != nil {
			s.stopErr = fmt.Errorf("nocap-serve exit: %v: %s", err, s.logs())
		}
		if s.dataDir != "" {
			if err := os.RemoveAll(s.dataDir); err != nil && s.stopErr == nil {
				s.stopErr = err
			}
		}
	})
	return s.stopErr
}

// cpuSeconds is the process's user+sys CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks).
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return float64(utime+stime) / 100, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// client speaks the server's JSON API. It is safe for concurrent use.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   3 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body. err is set only
// when no response arrived.
func (c *client) do(method, path string, in any) (int, []byte, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, nil, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

// call is do for requests that must answer want; the body decodes into out.
func (c *client) call(method, path string, in any, want int, out any) error {
	status, body, err := c.do(method, path, in)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// scrape reads /metrics into a map keyed by the series name with labels.
func (c *client) scrape() (map[string]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// The wire shapes of the server's API that the benchmark reads.
type (
	proveReq struct {
		Circuit string `json:"circuit"`
		N       int    `json:"n"`
		Reps    int    `json:"reps"`
	}
	proveResp struct {
		ProofB64   string  `json:"proof_b64"`
		ProofBytes int     `json:"proof_bytes"`
		ElapsedMS  float64 `json:"elapsed_ms"`
		QueueMS    float64 `json:"queue_ms"`
		Cached     bool    `json:"cached"`
	}
	verifyReq struct {
		Circuit  string `json:"circuit"`
		N        int    `json:"n"`
		Reps     int    `json:"reps"`
		ProofB64 string `json:"proof_b64"`
	}
	verifyResp struct {
		Valid     bool    `json:"valid"`
		Code      string  `json:"code"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	jobResp struct {
		ID         string `json:"id"`
		State      string `json:"state"`
		Attempts   int    `json:"attempts"`
		Cached     bool   `json:"cached"`
		Error      string `json:"error"`
		ProofB64   string `json:"proof_b64"`
		ProofBytes int    `json:"proof_bytes"`
	}
)
