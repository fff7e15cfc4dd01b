package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The machines the benchmark runs on are shared. Over minutes the same
// request takes 20-50% longer while neighbours load the host, and the
// server's own CPU time per request grows with it, so times measured at
// different moments are not comparable as they stand. The timed window
// therefore runs the host reference (the hostref program) after every
// operation and scales each reported time by refNominal over the run's
// median reference time.

// refNominal is the median reference time on an unloaded 2-vCPU VM; the
// scaled times read as they would there.
const refNominal = 12 * time.Millisecond

// refWarmups are reference runs made before the window and not counted.
const refWarmups = 5

// hostRef is a running hostref process.
type hostRef struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startHostRef(ctx context.Context, bin string) (*hostRef, error) {
	cmd := exec.Command(bin)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	h := &hostRef{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	for i := 0; i < refWarmups; i++ {
		if _, err := h.time(ctx); err != nil {
			h.stop()
			return nil, err
		}
	}
	return h, nil
}

// time runs the reference once and returns its wall time.
func (h *hostRef) time(ctx context.Context) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		return 0, fmt.Errorf("host reference: %w", err)
	}
	if !h.out.Scan() {
		return 0, errors.New("host reference exited")
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(h.out.Text()), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("host reference printed %q", h.out.Text())
	}
	return time.Duration(ns), nil
}

// stop closes the reference's input, which ends it, and waits for the
// exit.
func (h *hostRef) stop() {
	h.in.Close()
	done := make(chan struct{})
	go func() {
		_ = h.cmd.Wait() // the exit status does not matter: stop only waits for the exit
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = h.cmd.Process.Kill()
		<-done
	}
}

// hostScale is refNominal over the median reference time: the factor
// that turns a time measured in this run into one at nominal host speed.
func hostScale(refs []time.Duration) float64 {
	return float64(refNominal) / medianOf(refs, time.Nanosecond)
}
