package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lrm/internal/engine"
	"lrm/internal/privacy"
)

// buildServer compiles cmd/lrmserve from the repository at repo into
// dir and returns the binary's path.
func buildServer(ctx context.Context, repo, dir string) (string, error) {
	bin := filepath.Join(dir, "lrmserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/lrmserve")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lrmserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one lrmserve child process with its own fresh state
// directories.
type server struct {
	cmd       *exec.Cmd
	base      string // http://127.0.0.1:port
	dir       string // removed by stop
	cacheDir  string
	budgetDir string
	exited    chan struct{}
	waitErr   error
}

// startServer launches lrmserve for def on a free loopback port. The
// caller must stop it.
func startServer(bin, workdir string, def workloadDef) (*server, error) {
	dir, err := os.MkdirTemp(workdir, "srv-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		base:      "http://" + net.JoinHostPort("127.0.0.1", strconv.Itoa(port)),
		dir:       dir,
		cacheDir:  filepath.Join(dir, "cache"),
		budgetDir: filepath.Join(dir, "budget"),
		exited:    make(chan struct{}),
	}
	args := []string{"-addr", net.JoinHostPort("127.0.0.1", strconv.Itoa(port)), "-mech", def.Mech}
	if def.CacheDir {
		args = append(args, "-cache-dir", s.cacheDir)
	}
	if def.Tenant != "" {
		args = append(args, "-budget-dir", s.budgetDir, "-tenant-eps", strconv.FormatFloat(tenantCap, 'g', -1, 64))
	}
	s.cmd = exec.Command(bin, args...)
	// The server logs to stderr; keep this process's stdout for results.
	s.cmd.Stdout = os.Stderr
	s.cmd.Stderr = os.Stderr
	// If this process dies without stopping the server, the kernel does.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(ctx context.Context, hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("lrmserve exited before serving: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lrmserve not healthy after %v", timeout)
		}
	}
}

// stop terminates the server, waits for it to exit, and removes its
// directories.
func (s *server) stop() {
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may have exited since the check
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill() // the wait below still reaps it
			<-s.exited
		}
	}
	os.RemoveAll(s.dir)
}

// kernelStats mirrors the kernels section of lrmserve's GET /stats.
type kernelStats struct {
	Tier       string            `json:"tier"`
	Calibrated bool              `json:"calibrated"`
	Dispatch   map[string]string `json:"dispatch"`
}

// statsDoc is the part of lrmserve's GET /stats the benchmark reads.
type statsDoc struct {
	Engine  engine.Stats           `json:"engine"`
	Tenants []privacy.TenantStatus `json:"tenants"`
	Kernels kernelStats            `json:"kernels"`
}

func (s *server) stats(ctx context.Context, hc *http.Client) (statsDoc, error) {
	var doc statsDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/stats", nil)
	if err != nil {
		return doc, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc, err
}

// spent returns tenant's spent ε in a /stats snapshot.
func (d statsDoc) spent(tenant string) float64 {
	for _, t := range d.Tenants {
		if t.Tenant == tenant {
			return t.Spent
		}
	}
	return 0
}

// statsDelta returns the counter increments from a to b.
func statsDelta(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Requests:   b.Requests - a.Requests,
		Answers:    b.Answers - a.Answers,
		Hits:       b.Hits - a.Hits,
		Misses:     b.Misses - a.Misses,
		Coalesced:  b.Coalesced - a.Coalesced,
		Prepares:   b.Prepares - a.Prepares,
		Planned:    b.Planned - a.Planned,
		Evictions:  b.Evictions - a.Evictions,
		DiskHits:   b.DiskHits - a.DiskHits,
		DiskWrites: b.DiskWrites - a.DiskWrites,
		Batched:    b.Batched - a.Batched,
		Sharded:    b.Sharded - a.Sharded,
		Implicit:   b.Implicit - a.Implicit,
		Cached:     b.Cached,
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name, which may contain
	// spaces: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirUsage returns the total size in MiB and the file count under dir;
// a missing dir is empty.
func dirUsage(dir string) (mb float64, files int, err error) {
	var total int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			files++
		}
		return nil
	})
	return float64(total) / (1 << 20), files, err
}
