package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"incdb/internal/api"
	"incdb/internal/obs"
)

// snapshotBytes pins incdbd's -snapshot-bytes on durable-mixed: a few
// hundred appends outgrow it, so every run completes several
// snapshot/compaction cycles.
const snapshotBytes = 32 << 10

// serverFlags are the pinned incdbd flags. -trace-sample 0 keeps the
// default tracing tax (every request sampled) out of every number, so a
// later change of that default cannot read as a gain; -workers 2 matches
// the host's two CPUs; the result-cache capacity is part of the
// serve-small design (key set larger than the cache).
func serverFlags(addr, dataDir string) []string {
	args := []string{"-addr", addr, "-workers", "2", "-trace-sample", "0",
		"-result-cache-cap", strconv.Itoa(resultCacheCap)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-snapshot-bytes", strconv.Itoa(snapshotBytes))
	}
	return args
}

// server is one running incdbd process.
type server struct {
	cmd  *exec.Cmd
	base string
	http *http.Client
	done chan struct{} // closed once the process has been waited for
	err  error         // the wait error, valid after done
}

// httpClient allows at most two connections: perfbench never runs more
// than two request goroutines.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts incdbd with the pinned flags, its log going to logPath.
func launch(bin, dataDir, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, serverFlags(addr, dataDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive perfbench, however perfbench ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start incdbd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, http: httpClient(), done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /v1/readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("incdbd exited before ready: %v", s.err)
		default:
		}
		resp, err := s.http.Get(s.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("incdbd not ready after %v", timeout)
}

// post sends one JSON request and returns the status and body.
func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.http.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// load replaces the session database with the dataset text.
func (s *server) load(dataset string) error {
	body, err := json.Marshal(api.LoadRequest{Data: dataset})
	if err != nil {
		return err
	}
	code, b, err := s.post("/v1/sessions/"+session+"/load", body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("load: HTTP %d: %s", code, b)
	}
	return nil
}

// scrape returns the server's /v1/metrics samples.
func (s *server) scrape() (promSnapshot, error) {
	resp, err := s.http.Get(s.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /v1/metrics: %w", err)
	}
	return snapshotOf(samples), nil
}

// memMB reads one memory field of the process's /proc status, VmRSS (the
// resident set size) or VmHWM (its peak), in MB.
func (s *server) memMB(field string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat; Linux fixes it
// at 100 for user space.
const userHZ = 100

// cpuSeconds reads the user plus system CPU time the process has used.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields follow the parenthesized command name, starting with field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / userHZ, nil
}

// kill sends SIGKILL and waits for the process to end.
func (s *server) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
	s.http.CloseIdleConnections()
}

// stop asks for a graceful shutdown and waits; SIGKILL after a grace period.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Signal(syscall.SIGKILL)
		<-s.done
	}
	s.http.CloseIdleConnections()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // a snapshot rename raced the walk
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					return nil
				}
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
