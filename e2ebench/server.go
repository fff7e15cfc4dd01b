package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// server is one running flexray-serve process with default flags,
// listening on a loopback port of its own choosing.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// startServer spawns the binary and waits until /readyz reports ready.
// It returns the server and the spawn-to-ready time.
func startServer(ctx context.Context, bin, workDir string) (*server, time.Duration, error) {
	addrFile := filepath.Join(workDir, "addr")
	_ = os.Remove(addrFile) // a stale file would be read before the new server writes it
	logf, err := os.Create(filepath.Join(workDir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status does not matter: stop only waits for the exit
		close(s.done)
	}()
	ready, err := s.awaitReady(ctx, addrFile)
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("%w (log: %s)", err, s.tail())
	}
	return s, ready.Sub(start), nil
}

func (s *server) awaitReady(ctx context.Context, addrFile string) (time.Time, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return time.Time{}, errors.New("server exited before becoming ready")
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		default:
		}
		if s.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
				s.base = "http://" + string(bytes.TrimSpace(b))
			}
		}
		if s.base != "" {
			if resp, err := client.Get(s.base + "/readyz"); err == nil {
				var st struct {
					Ready bool `json:"ready"`
				}
				err := json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK && st.Ready {
					return time.Now(), nil
				}
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return time.Time{}, errors.New("server not ready within 30s")
}

// stop sends SIGTERM, waits for the graceful drain and kills the process
// if it takes longer than ten seconds. It always waits for the exit.
func (s *server) stop() {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.log.Close()
}

// tail returns the last lines of the server log for error messages.
func (s *server) tail() string {
	b, err := os.ReadFile(s.log.Name())
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpuTime reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')': utime and stime are fields 14 and 15.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed stat: no command name")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed stat: %d fields after the command name", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS reads VmHWM, the process's resident-set high-water mark.
func peakRSS(pid int) (bytesUsed int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

// parseStatusHWM extracts VmHWM from the contents of /proc/<pid>/status.
func parseStatusHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", line, err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("no VmHWM line in status")
}
