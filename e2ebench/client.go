package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// opTimeout bounds one operation; a slower one counts as failed.
const opTimeout = 120 * time.Second

// client talks to the server over a single keep-alive connection: the
// callers of a design tool or a CI pipeline wait for each reply.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: opTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body, so the connection can
// be reused.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// algoRun is one entry of a response's "runs" array.
type algoRun struct {
	Algorithm   string  `json:"algorithm"`
	Cost        float64 `json:"cost"`
	Schedulable bool    `json:"schedulable"`
	Evaluations int     `json:"evaluations"`
	ElapsedUs   int64   `json:"elapsed_us"`
	Err         string  `json:"error"`
}

func toOutcome(name, best string, runs []algoRun) outcome {
	o := outcome{Name: name, Best: best}
	for _, r := range runs {
		o.Runs = append(o.Runs, algoOutcome{r.Algorithm, r.Cost, r.Evaluations, r.Schedulable})
	}
	return o
}

// optimizeReply is the part of the POST /v1/optimize response the
// benchmark reads.
type optimizeReply struct {
	Best struct {
		Algorithm string          `json:"algorithm"`
		Config    json.RawMessage `json:"config"`
	} `json:"best"`
	Runs      []algoRun `json:"runs"`
	ElapsedUs int64     `json:"elapsed_us"`
}

// optimize sends one optimise request and returns the reply with its
// round-trip latency.
func (c *client) optimize(ctx context.Context, body []byte) (*optimizeReply, time.Duration, error) {
	t := time.Now()
	b, err := c.do(ctx, http.MethodPost, "/v1/optimize", body, http.StatusOK)
	lat := time.Since(t)
	if err != nil {
		return nil, lat, err
	}
	var r optimizeReply
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, lat, fmt.Errorf("decoding optimize reply: %w", err)
	}
	return &r, lat, nil
}

// jobSnap is the part of a job snapshot the benchmark reads.
type jobSnap struct {
	ID          string    `json:"id"`
	Status      string    `json:"status"`
	Error       string    `json:"error"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// record is one system of a campaign job's result.
type record struct {
	Name     string    `json:"name"`
	Err      string    `json:"error"`
	Runs     []algoRun `json:"runs"`
	Best     string    `json:"best"`
	BestCost float64   `json:"best_cost"`
}

// jobRun is one campaign job as the client saw it.
type jobRun struct {
	latency time.Duration // POST sent → terminal event read
	submit  time.Duration // POST round trip
	seen    time.Time     // when the terminal event was read
	job     jobSnap       // the terminal snapshot
	records []record
}

// runJob submits a campaign job, follows its event stream to the
// terminal event and fetches the result.
func (c *client) runJob(ctx context.Context, body []byte) (*jobRun, error) {
	t := time.Now()
	b, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	jr := &jobRun{submit: time.Since(t)}
	var sub jobSnap
	if err := json.Unmarshal(b, &sub); err != nil || sub.ID == "" {
		return nil, fmt.Errorf("decoding job submission %q: %v", b, err)
	}
	if jr.job, err = c.follow(ctx, sub.ID); err != nil {
		return nil, err
	}
	jr.seen = time.Now()
	jr.latency = jr.seen.Sub(t)
	if jr.job.Status != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", sub.ID, jr.job.Status, jr.job.Error)
	}
	b, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var res struct {
		Records []record `json:"records"`
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("decoding job result: %w", err)
	}
	jr.records = res.Records
	return jr, nil
}

// follow reads /v1/jobs/{id}/events until a terminal snapshot arrives.
func (c *client) follow(ctx context.Context, id string) (jobSnap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return jobSnap{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return jobSnap{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return jobSnap{}, fmt.Errorf("GET events: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var j jobSnap
		if err := json.Unmarshal([]byte(data), &j); err != nil {
			return jobSnap{}, fmt.Errorf("decoding job event: %w", err)
		}
		switch j.Status {
		case "done", "failed", "cancelled":
			// The server closes the stream after the terminal event;
			// reading to the end keeps the connection reusable.
			_, _ = io.Copy(io.Discard, resp.Body)
			return j, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobSnap{}, fmt.Errorf("reading job events: %w", err)
	}
	return jobSnap{}, fmt.Errorf("job %s: event stream ended without a terminal event", id)
}
