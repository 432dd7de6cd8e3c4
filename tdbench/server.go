package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running tdserve process, started on its default flags
// apart from its address, store and jobs directories (plus any extra
// flags a phase compares against).
type server struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	storeDir string
	pid      int
	log      *os.File
	done     chan error
}

// startServer launches tdserve on a free loopback port over fresh store
// and jobs directories under dir, and waits until /readyz answers 200.
func startServer(bin, model, dir string, extra ...string) (*server, error) {
	for _, sub := range []string{"store", "jobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	logf, err := os.Create(filepath.Join(dir, "tdserve.log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-model", model, "-addr", "127.0.0.1:0",
		"-store", filepath.Join(dir, "store"), "-jobs", filepath.Join(dir, "jobs")}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start tdserve: %w", err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, log: logf, done: make(chan error, 1),
		storeDir: filepath.Join(dir, "store")}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		close(addr)
		s.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("tdserve exited before listening (see %s)", logf.Name())
		}
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("tdserve did not report its address within 60s")
	}
	if err := s.waitReady(60 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// probeClient is used for readiness polls and scrapes, never for load.
var probeClient = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{Proxy: nil}}

func (s *server) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := probeClient.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("tdserve never became ready")
}

// stop drains the server with SIGTERM, escalating to SIGKILL, and waits
// for the process to exit. /readyz can answer before tdserve installs its
// signal handler, so a set-up server stopped at once may die of the
// SIGTERM itself; that is a stop, not a failure.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		return <-s.done
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// scrape reads /metrics into a map from series (name plus labels) to
// value. Exemplar suffixes are dropped.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := probeClient.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
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
	return out, sc.Err()
}

// procStats are the server's kernel counters, read from /proc.
type procStats struct {
	cpuTicks int64 // utime+stime in clock ticks
	hwmKB    int64 // VmHWM
	wchar    int64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

func (s *server) proc() (procStats, error) {
	var ps procStats
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, errors.New("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpuTicks = ut + st
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			ps.hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	ioStat, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", s.pid))
	if err == nil {
		for _, line := range strings.Split(string(ioStat), "\n") {
			if v, ok := strings.CutPrefix(line, "wchar:"); ok {
				ps.wchar, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			}
		}
	}
	return ps, nil
}

// counters is a point-in-time reading of everything observed from
// outside the server.
type counters struct {
	at      time.Time
	metrics map[string]float64
	proc    procStats
}

func (s *server) read() (counters, error) {
	m, err := s.scrape()
	if err != nil {
		return counters{}, err
	}
	p, err := s.proc()
	if err != nil {
		return counters{}, err
	}
	return counters{at: time.Now(), metrics: m, proc: p}, nil
}

// delta returns the change of a metric series between two readings.
func delta(a, b counters, series string) float64 { return b.metrics[series] - a.metrics[series] }

// cpuMS returns the server CPU milliseconds spent between two readings.
func cpuMS(a, b counters) float64 {
	return float64(b.proc.cpuTicks-a.proc.cpuTicks) * 1000 / clockTicks
}

// train runs tdtrain on its defaults (the fixed model seed) into path.
func train(bin, path string) error {
	cmd := exec.Command(bin, "-out", path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("tdtrain: %v: %s", err, out)
	}
	return nil
}
