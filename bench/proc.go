package main

// proc.go holds what the harness needs from the operating system: CPU time
// and peak RSS of a process read from /proc (Linux only), building
// cmd/cacheserver, and running it as a child on a free loopback port.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU returns the user+system CPU seconds process pid has consumed.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	_, rest, ok := strings.Cut(string(b), ") ")
	if !ok {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return float64(utime+stime) / clockTick, nil
}

// procPeakRSS returns the peak resident set of process pid in MiB (VmHWM).
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// buildServer compiles cmd/cacheserver from the checkout at root into
// buildDir and returns the binary's path and how long the build took.
func buildServer(ctx context.Context, root, buildDir string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir, "cacheserver")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cacheserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building cacheserver: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freeAddr picks a loopback port by binding port 0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// server is a running cacheserver child.
type server struct {
	cmd     *exec.Cmd
	URL     string
	LogPath string        // the child's stderr
	StartMS float64       // spawn → first healthy /v1/healthz
	exited  chan struct{} // closed once the child has been waited for
	waitErr error
}

// startServer spawns bin on a free port with stderr to logPath and returns
// once /v1/healthz answers 200. The child dies with ctx, and with this
// process even when it is killed.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cacheserver: %w", err)
	}
	s := &server{cmd: cmd, URL: "http://" + addr, LogPath: logPath, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	health := s.URL + "/v1/healthz"
	for {
		resp, err := http.Get(health)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.StartMS = float64(time.Since(start)) / float64(time.Millisecond)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			log, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("cacheserver exited before it was healthy: %v\n%s", s.waitErr, log)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		// Readiness polling is the one wait in the harness; it is part of
		// setup_s, never of a measured phase.
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, errors.New("cacheserver not healthy after 30s")
		}
	}
}

// alive reports whether the child is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// stop kills the child and waits until it has ended. cacheserver has no
// graceful shutdown, so a kill loses nothing a signal would have saved.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already-exited is the only failure, and is fine
	<-s.exited
}

func (s *server) pid() int { return s.cmd.Process.Pid }
