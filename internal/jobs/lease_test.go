package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// startLeaseFleet serves m's lease endpoints on a loopback listener and
// runs one in-process Worker per id against it, stopping everything at
// test cleanup (before the manager closes).
func startLeaseFleet(t *testing.T, m *Manager, ids ...string) {
	t.Helper()
	mux := http.NewServeMux()
	NewLeaseAPI(m).Register(mux)
	ts := httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range ids {
		w := NewWorker(WorkerOptions{
			ID: id, BaseURL: ts.URL,
			Poll: 5 * time.Millisecond, Workers: 1,
			Logf: t.Logf,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		ts.Close()
	})
}

// canonicalRecords strips the wall-clock timing telemetry (the only
// nondeterministic field) and marshals the rest, so two runs can be
// compared byte-for-byte.
func canonicalRecords(t *testing.T, recs []campaign.Record) []byte {
	t.Helper()
	out := make([]campaign.Record, len(recs))
	for i, rec := range recs {
		rec.Runs = append([]campaign.AlgoRun(nil), rec.Runs...)
		for k := range rec.Runs {
			rec.Runs[k].ElapsedUs = 0
		}
		out[i] = rec
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runSerialBaseline executes spec (with Distribute off) on a fresh
// single-process manager and returns its records.
func runSerialBaseline(t *testing.T, spec Spec) []campaign.Record {
	t.Helper()
	spec.Distribute = false
	m := newTestManager(t, nil, ManagerOptions{Workers: 1})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusDone)
	res, _, err := m.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	return res.Records
}

// TestDistributedCampaignParity: a distributed campaign drained by two
// worker peers produces records bit-identical (modulo wall-clock
// telemetry) to a serial single-process run.
func TestDistributedCampaignParity(t *testing.T) {
	spec := Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: []int{2, 3}, AppsPerCount: 2, Seed: 7, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc", "obc-cf"},
		Tuning:     quickTuning(),
		Distribute: true,
	}
	want := canonicalRecords(t, runSerialBaseline(t, spec))

	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	startLeaseFleet(t, m, "w1", "w2")
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m, job.ID, StatusDone)
	res, _, err := m.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalRecords(t, res.Records)
	if string(got) != string(want) {
		t.Errorf("distributed records differ from serial run:\n got %s\nwant %s", got, want)
	}
	if done.Progress.Completed != 4 || done.Progress.Total != 4 {
		t.Errorf("progress %+v, want 4/4", done.Progress)
	}
	if done.Progress.Best == "" {
		t.Error("settled progress lost its best system")
	}
}

// TestDistributedUploadedSystems: the uploaded-systems payload path
// ships raw system JSON to the workers and still matches serial.
func TestDistributedUploadedSystems(t *testing.T) {
	spec := Spec{
		Kind:       KindCampaign,
		Population: &Population{Systems: []json.RawMessage{sysJSON(t, 2, 5), sysJSON(t, 3, 9), sysJSON(t, 2, 11)}},
		Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Distribute: true,
	}
	want := canonicalRecords(t, runSerialBaseline(t, spec))

	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 2, LeaseTTL: 10 * time.Second})
	startLeaseFleet(t, m, "w1")
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusDone)
	res, _, err := m.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalRecords(t, res.Records); string(got) != string(want) {
		t.Errorf("distributed records differ from serial run:\n got %s\nwant %s", got, want)
	}
}

// submitDistributed submits a small distributed campaign and waits for
// it to start publishing leases.
func submitDistributed(t *testing.T, m *Manager, systems int) Job {
	t.Helper()
	counts := make([]int, systems)
	for i := range counts {
		counts[i] = 2
	}
	job, err := m.Submit(Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: counts, AppsPerCount: 1, Seed: 7, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Distribute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusRunning)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(m.Leases().Leases) == systems {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never published %d shard leases", job.ID, systems)
	return Job{}
}

// TestLeaseExpiryRequeue: a claimed shard whose worker goes silent is
// re-queued by the janitor after the TTL; the dead lease answers 409
// and a re-grant carries the next attempt number.
func TestLeaseExpiryRequeue(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 50 * time.Millisecond})
	submitDistributed(t, m, 1)

	g, err := m.ClaimLease("doomed")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	if g.Attempt != 1 {
		t.Fatalf("first grant attempt %d, want 1", g.Attempt)
	}
	// No renewals: the janitor must expire the lease and re-queue the
	// shard.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ls := m.Leases().Leases
		if len(ls) == 1 && ls[0].State == "pending" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never re-queued; leases %+v", ls)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.RenewLease(g.LeaseID, "doomed"); !errors.Is(err, ErrLeaseStale) {
		t.Errorf("renewing an expired lease: %v, want ErrLeaseStale", err)
	}
	recs, err := runShardGrant(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteLease(g.LeaseID, "doomed", recs, ""); !errors.Is(err, ErrLeaseStale) {
		t.Errorf("completing an expired lease: %v, want ErrLeaseStale", err)
	}

	g2, err := m.ClaimLease("healthy")
	if err != nil || g2 == nil {
		t.Fatalf("re-claim: %v, %v", g2, err)
	}
	if g2.Attempt != 2 || g2.Lo != g.Lo || g2.Hi != g.Hi || g2.Shard != g.Shard {
		t.Errorf("re-grant %+v, want attempt 2 of the same shard as %+v", g2, g)
	}
	if err := m.CompleteLease(g2.LeaseID, "healthy", recs, ""); err != nil {
		t.Fatalf("completing the re-granted lease: %v", err)
	}
	waitStatus(t, m, submittedJobID(t, m), StatusDone)
}

// submittedJobID returns the single job the manager holds.
func submittedJobID(t *testing.T, m *Manager) string {
	t.Helper()
	list := m.List("")
	if len(list) != 1 {
		t.Fatalf("%d jobs, want 1", len(list))
	}
	return list[0].ID
}

// TestLeaseFailureRequeue: a worker-reported shard failure re-queues
// the shard instead of failing the job.
func TestLeaseFailureRequeue(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	job := submitDistributed(t, m, 1)

	g, err := m.ClaimLease("flaky")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	if err := m.CompleteLease(g.LeaseID, "flaky", nil, "synthetic crash"); err != nil {
		t.Fatalf("failing the lease: %v", err)
	}
	g2, err := m.ClaimLease("steady")
	if err != nil || g2 == nil {
		t.Fatalf("re-claim after failure: %v, %v", g2, err)
	}
	if g2.Attempt != 2 {
		t.Errorf("attempt %d after failure, want 2", g2.Attempt)
	}
	recs, err := runShardGrant(context.Background(), g2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteLease(g2.LeaseID, "steady", recs, ""); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, job.ID, StatusDone)
}

// TestCancelledJobLeaseGone: a lease of a job cancelled while the
// lease is out answers ErrLeaseGone at once, even when the report
// arrives before the job's runner has woken to release its leases; it
// is never re-queued as a worker failure.
func TestCancelledJobLeaseGone(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	job := submitDistributed(t, m, 1)

	g, err := m.ClaimLease("w")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	if _, err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteLease(g.LeaseID, "w", nil, "reporting into a cancelled job"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("completing right after the cancel: %v, want ErrLeaseGone", err)
	}
	waitStatus(t, m, job.ID, StatusCancelled)
	if err := m.CompleteLease(g.LeaseID, "w", nil, "again"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("completing after the job left: %v, want ErrLeaseGone", err)
	}
}

// TestCompleteLeasePayloadMismatch: a record count that does not match
// the shard range is rejected with ErrLeasePayload and the lease stays
// held.
func TestCompleteLeasePayloadMismatch(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	job := submitDistributed(t, m, 1)

	g, err := m.ClaimLease("w")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	bogus := []campaign.Record{{Index: 0}, {Index: 1}}
	if err := m.CompleteLease(g.LeaseID, "w", bogus, ""); !errors.Is(err, ErrLeasePayload) {
		t.Fatalf("oversized payload: %v, want ErrLeasePayload", err)
	}
	if err := m.CompleteLease(g.LeaseID, "thief", nil, "not mine"); !errors.Is(err, ErrLeaseStale) {
		t.Fatalf("foreign worker completing: %v, want ErrLeaseStale", err)
	}
	recs, err := runShardGrant(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteLease(g.LeaseID, "w", recs, ""); err != nil {
		t.Fatalf("valid completion after rejects: %v", err)
	}
	waitStatus(t, m, job.ID, StatusDone)
	if err := m.CompleteLease(g.LeaseID, "w", recs, ""); !errors.Is(err, ErrLeaseStale) {
		t.Fatalf("double complete: %v, want ErrLeaseStale", err)
	}
}

// TestDistributedRestartResume: a coordinator restart replays durably
// completed shards and re-runs only the missing ones; the merged result
// still matches a serial run.
func TestDistributedRestartResume(t *testing.T) {
	spec := Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: []int{2, 2, 3}, AppsPerCount: 1, Seed: 3, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Distribute: true,
	}
	want := canonicalRecords(t, runSerialBaseline(t, spec))

	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	store1, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(store1, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m1, job.ID, StatusRunning)
	// Complete exactly one shard durably, then crash-stop the
	// coordinator (Close checkpoints the running job back to queued).
	g, err := m1.ClaimLease("w1")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	recs, err := runShardGrant(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.CompleteLease(g.LeaseID, "w1", recs, ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	store2, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, store2, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	// The completed shard must already be adopted from replay before
	// any worker shows up.
	m2.mu.Lock()
	_, adopted := m2.shardResults[job.ID][g.Shard]
	m2.mu.Unlock()
	if !adopted {
		t.Fatalf("replay did not restore shard %d of %s", g.Shard, job.ID)
	}
	startLeaseFleet(t, m2, "w1", "w2")
	waitStatus(t, m2, job.ID, StatusDone)
	res, _, err := m2.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalRecords(t, res.Records); string(got) != string(want) {
		t.Errorf("resumed records differ from serial run:\n got %s\nwant %s", got, want)
	}
}

// TestLeaseReplayNeverResurrects: conflicting and malformed lease
// records in the store can neither overwrite the first durable shard
// completion nor attach results to unknown or terminal jobs.
func TestLeaseReplayNeverResurrects(t *testing.T) {
	store := NewMemStore()
	spec := &Spec{
		Kind:       KindCampaign,
		Population: &Population{NodeCounts: []int{2, 2}, AppsPerCount: 1, Seed: 3, DeadlineFactor: 2.0},
		Algorithms: []string{"bbc"},
		Tuning:     quickTuning(),
		Distribute: true,
	}
	now := time.Now()
	rec := func(idx, lo, hi int, name string, n int) StoreRecord {
		recs := make([]campaign.Record, n)
		for i := range recs {
			recs[i] = campaign.Record{Index: lo + i, Name: name}
		}
		return StoreRecord{Type: recordLease, ID: "j-test", Time: now, Lease: &LeaseEvent{
			Event: leaseEventComplete, Shard: idx, Lo: lo, Hi: hi, Records: recs,
		}}
	}
	seed := []StoreRecord{
		{Type: recordSubmit, ID: "j-test", Time: now, Spec: spec},
		// Audit noise that must be ignored outright.
		{Type: recordLease, ID: "j-test", Time: now, Lease: &LeaseEvent{Event: leaseEventGrant, Shard: 0, Lo: 0, Hi: 1, Worker: "w"}},
		{Type: recordLease, ID: "j-test", Time: now, Lease: &LeaseEvent{Event: leaseEventExpire, Shard: 0, Lo: 0, Hi: 1, Worker: "w"}},
		rec(0, 0, 1, "first", 1),
		// A duplicate complete must not displace the first.
		rec(0, 0, 1, "second", 1),
		// Malformed payloads: inverted range, wrong record count,
		// negative shard index.
		rec(1, 1, 0, "bad-range", 0),
		rec(1, 1, 2, "bad-count", 3),
		rec(-1, 0, 1, "bad-shard", 1),
		// A complete for a job that does not exist.
		{Type: recordLease, ID: "j-ghost", Time: now, Lease: &LeaseEvent{
			Event: leaseEventComplete, Shard: 0, Lo: 0, Hi: 1,
			Records: []campaign.Record{{Index: 0}},
		}},
	}
	for _, r := range seed {
		if err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	m := newTestManager(t, store, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: time.Hour})
	waitStatus(t, m, "j-test", StatusRunning)
	m.mu.Lock()
	got := m.shardResults["j-test"]
	name := ""
	if sr, ok := got[0]; ok && len(sr.records) == 1 {
		name = sr.records[0].Name
	}
	_, ghost := m.shardResults["j-ghost"]
	badCount := len(got)
	m.mu.Unlock()
	if name != "first" {
		t.Errorf("shard 0 replayed as %q, want the first durable complete", name)
	}
	if badCount != 1 {
		t.Errorf("%d shards replayed, want only the well-formed one", badCount)
	}
	if ghost {
		t.Error("replay attached results to an unknown job")
	}
	if _, err := m.Cancel("j-test"); err != nil {
		t.Fatal(err)
	}
}

// TestRingDeterminism: the consistent-hash ring is independent of
// insertion order, total (every key owned), and stable for a given
// fleet.
func TestRingDeterminism(t *testing.T) {
	a := buildRing([]string{"w1", "w2", "w3"})
	b := buildRing([]string{"w3", "w1", "w2"})
	keys := make([]uint64, 0, 200)
	for i := 0; i < 200; i++ {
		keys = append(keys, fnv64("job", "shard", string(rune('a'+i%26)), string(rune('0'+i%10))))
	}
	counts := map[string]int{}
	for _, k := range keys {
		oa, ob := a.owner(k), b.owner(k)
		if oa != ob {
			t.Fatalf("owner(%d) depends on insertion order: %q vs %q", k, oa, ob)
		}
		if oa == "" {
			t.Fatalf("owner(%d) empty for a populated ring", k)
		}
		counts[oa]++
	}
	if len(counts) != 3 {
		t.Errorf("distribution %v, want all three workers used", counts)
	}
	solo := buildRing([]string{"only"})
	if got := solo.owner(12345); got != "only" {
		t.Errorf("single-worker ring routed to %q", got)
	}
	var empty hashRing
	if got := empty.owner(1); got != "" {
		t.Errorf("empty ring routed to %q", got)
	}
}

// TestClaimLeaseDrain: claims hand out each shard exactly once, then
// answer no-work; the lease list tracks the registered workers.
func TestClaimLeaseDrain(t *testing.T) {
	m := newTestManager(t, nil, ManagerOptions{Workers: 1, LeaseSystems: 1, LeaseTTL: 10 * time.Second})
	job := submitDistributed(t, m, 3)

	seen := map[int]bool{}
	grants := []*ShardGrant{}
	for _, w := range []string{"w1", "w2", "w1"} {
		g, err := m.ClaimLease(w)
		if err != nil || g == nil {
			t.Fatalf("claim for %s: %v, %v", w, g, err)
		}
		if seen[g.Shard] {
			t.Fatalf("shard %d granted twice", g.Shard)
		}
		seen[g.Shard] = true
		grants = append(grants, g)
	}
	if g, err := m.ClaimLease("w2"); err != nil || g != nil {
		t.Fatalf("claim on a drained table: %v, %v, want no work", g, err)
	}
	ll := m.Leases()
	if len(ll.Workers) != 2 {
		t.Errorf("%d workers registered, want 2", len(ll.Workers))
	}
	granted := 0
	for _, l := range ll.Leases {
		if l.State == "granted" {
			granted++
		}
	}
	if granted != 3 {
		t.Errorf("%d granted leases listed, want 3", granted)
	}
	for _, g := range grants {
		recs, err := runShardGrant(context.Background(), g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CompleteLease(g.LeaseID, grantWorker(ll, g.LeaseID), recs, ""); err != nil {
			t.Fatalf("completing %s: %v", g.LeaseID, err)
		}
	}
	waitStatus(t, m, job.ID, StatusDone)
}

// grantWorker finds the worker holding a lease in a snapshot.
func grantWorker(ll LeaseList, leaseID string) string {
	for _, l := range ll.Leases {
		if l.ID == leaseID {
			return l.Worker
		}
	}
	return ""
}

// TestLeaseRespError: a lease failure maps its status onto the lease
// sentinels and carries the envelope's message, or the raw body when
// the response is not the envelope.
func TestLeaseRespError(t *testing.T) {
	cases := []struct {
		status int
		body   string
		base   error
		want   string
	}{
		{http.StatusConflict, `{"error": {"code": "lease_stale", "message": "held by w2"}}`,
			ErrLeaseStale, "jobs: lease no longer held (held by w2)"},
		{http.StatusNotFound, "", ErrLeaseNotFound, "jobs: no such lease"},
		{http.StatusGone, "gone\n", ErrLeaseGone, "jobs: lease retired with its job (gone)"},
		{http.StatusBadGateway, `{"error": "upstream down"}`, nil,
			`jobs: lease request: HTTP 502: {"error": "upstream down"}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		rec.WriteHeader(tc.status)
		rec.WriteString(tc.body)
		err := leaseRespError(rec.Result())
		if tc.base != nil && !errors.Is(err, tc.base) {
			t.Errorf("HTTP %d: %v, want %v", tc.status, err, tc.base)
		}
		if err.Error() != tc.want {
			t.Errorf("HTTP %d: message %q, want %q", tc.status, err, tc.want)
		}
	}
}
