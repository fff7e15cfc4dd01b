package jobs

// Distributed campaign execution: coordinator side.
//
// A campaign submitted with Distribute set is not executed by the
// manager's own worker goroutine. Instead the population is split into
// contiguous shards (campaign.ShardRanges) and each shard becomes a
// work lease: worker peers pull shards with ClaimLease, heartbeat them
// with RenewLease and return records with CompleteLease. The job's
// worker goroutine merely waits for the last shard, then merges the
// per-shard records deterministically (campaign.MergeShardRecords) —
// so the result is bit-identical to a serial run for any fleet size.
//
// Durability rides on the existing JSONL store: every shard completion
// is appended (and fsynced) as a "lease" record before the worker is
// acknowledged, so finished shards survive a coordinator crash and a
// restarted job re-runs only what is missing. Grant/expire/fail events
// are appended best-effort as an audit trail; replay ignores them.
//
// Worker death is survived by lease expiry: a janitor re-queues any
// granted shard whose lease outlived its TTL without a renewal, and
// the retired lease ID answers ErrLeaseStale from then on. Re-queueing
// is deterministic — the shard returns to pending with its identity
// (range, routing key) unchanged, so a re-grant computes the identical
// records.
//
// Claim routing is cache-affine: worker IDs form a consistent-hash
// ring (ring.go) and a claim prefers a pending shard the ring assigns
// to the claiming worker, so repeated grants of the same shard (and
// re-claims after a failure) land where the fingerprint-keyed eval
// cache is already warm. When a worker owns no pending shard it
// steals the oldest one instead — progress never waits for a dead
// owner.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/synth"
)

// LeaseEvent is the payload of a "lease" store record: one event of a
// distributed shard's lifecycle. Only "complete" events carry records
// and matter to replay; the rest are an audit trail.
type LeaseEvent struct {
	// Event is "grant", "complete", "expire" or "fail".
	Event   string `json:"event"`
	LeaseID string `json:"lease_id,omitempty"`
	// Shard is the shard's index; Lo/Hi its population range.
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// Worker is the peer holding (or losing) the lease.
	Worker string `json:"worker,omitempty"`
	// Attempt counts grants of this shard, starting at 1.
	Attempt int `json:"attempt,omitempty"`
	// Error is the worker-reported failure of a "fail" event.
	Error string `json:"error,omitempty"`
	// Records are the shard's results ("complete" only), already
	// rebased to global population indices.
	Records []campaign.Record `json:"records,omitempty"`
}

const (
	leaseEventGrant    = "grant"
	leaseEventComplete = "complete"
	leaseEventExpire   = "expire"
	leaseEventFail     = "fail"
)

// Lease states, internal (the snapshot reports them as strings).
type leaseState int

const (
	leasePending leaseState = iota
	leaseGranted
	leaseDone
)

func (s leaseState) String() string {
	switch s {
	case leaseGranted:
		return "granted"
	case leaseDone:
		return "done"
	}
	return "pending"
}

// leaseShard is one shard of a distributed campaign; guarded by the
// manager mutex except the immutable idx/lo/hi/key.
type leaseShard struct {
	idx    int
	lo, hi int
	key    uint64 // consistent-hash routing key

	state   leaseState
	leaseID string
	worker  string
	attempt int
	expiry  time.Time
}

// grantTemplate is the immutable per-job payload every grant of the
// job's shards slices from.
type grantTemplate struct {
	algorithms  []string
	saWarm      bool
	tuning      *Tuning
	specs       []synth.Params
	systems     []json.RawMessage
	traceparent string
}

// leaseJob tracks one running distributed campaign; guarded by the
// manager mutex except the immutable j/grant/shards slice and the
// done channel (closed exactly once, under the mutex).
type leaseJob struct {
	j         *job
	grant     grantTemplate
	shards    []*leaseShard
	remaining int
	done      chan struct{}
}

// shardResult is a completed shard's records, kept until the job goes
// terminal so a restart (or a late merge) can reuse them.
type shardResult struct {
	lo, hi  int
	records []campaign.Record
}

// ShardGrant is the claim response handed to a worker: the lease
// identity plus everything needed to run the shard standalone.
type ShardGrant struct {
	LeaseID string `json:"lease_id"`
	JobID   string `json:"job_id"`
	Shard   int    `json:"shard"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Attempt int    `json:"attempt"`
	// TTLMs is the lease TTL; the worker renews well within it.
	TTLMs int64 `json:"ttl_ms"`
	// TraceParent continues the coordinator's job trace on the worker.
	TraceParent string `json:"trace_parent,omitempty"`
	// Optimiser selection and knobs, copied from the job spec.
	Algorithms    []string `json:"algorithms,omitempty"`
	SAWarmFromOBC bool     `json:"sa_warm_from_obc,omitempty"`
	Tuning        *Tuning  `json:"tuning,omitempty"`
	// Exactly one of Specs (synthesised population slice) or Systems
	// (uploaded systems slice) is set.
	Specs   []synth.Params    `json:"specs,omitempty"`
	Systems []json.RawMessage `json:"systems,omitempty"`
}

// Lease is the externally visible snapshot of one shard lease.
type Lease struct {
	ID        string    `json:"id,omitempty"`
	JobID     string    `json:"job_id"`
	Shard     int       `json:"shard"`
	Lo        int       `json:"lo"`
	Hi        int       `json:"hi"`
	State     string    `json:"state"`
	Worker    string    `json:"worker,omitempty"`
	Attempt   int       `json:"attempt,omitempty"`
	ExpiresAt time.Time `json:"expires_at,omitzero"`
}

// LeaseWorkerInfo is one registered worker peer.
type LeaseWorkerInfo struct {
	ID       string    `json:"id"`
	LastSeen time.Time `json:"last_seen"`
}

// LeaseList is the GET /v1/leases payload: every shard of every
// running distributed job plus the recently seen workers.
type LeaseList struct {
	Leases  []Lease           `json:"leases"`
	Workers []LeaseWorkerInfo `json:"workers"`
}

// maxRetiredLeases bounds the retired-lease memory (lease ID → why it
// is dead); beyond it the oldest entries fall back to ErrLeaseNotFound.
const maxRetiredLeases = 4096

func newLeaseID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: lease id entropy: %v", err))
	}
	return "l-" + hex.EncodeToString(b[:])
}

// runDistributed executes a Distribute campaign by publishing its
// shards as leases and waiting for the worker fleet to drain them.
// Shards completed by an earlier incarnation of the job (replayed
// lease records) are adopted, not re-run.
func (m *Manager) runDistributed(ctx context.Context, j *job, c *compiled) (*Result, error) {
	total := len(c.specs) + len(c.systems)
	m.updateProgress(j, func(p *Progress) { p.Total = total })
	size := j.spec.ShardSystems
	if size <= 0 {
		size = m.opts.LeaseSystems
	}
	ranges := campaign.ShardRanges(total, size)
	lj := &leaseJob{
		j: j,
		grant: grantTemplate{
			algorithms:  c.algorithms,
			saWarm:      j.spec.SAWarmFromOBC,
			tuning:      j.spec.Tuning,
			specs:       c.specs,
			traceparent: obs.SpanFromContext(ctx).Traceparent(),
		},
		done: make(chan struct{}),
	}
	if len(c.systems) > 0 {
		// Ship the uploaded systems as their original raw JSON, so the
		// worker parses exactly what the submitter sent.
		lj.grant.specs = nil
		lj.grant.systems = j.spec.Population.Systems
	}
	for i, r := range ranges {
		lj.shards = append(lj.shards, &leaseShard{
			idx: i, lo: r.Lo, hi: r.Hi,
			key: fnv64(j.id, strconv.Itoa(r.Lo), strconv.Itoa(r.Hi)),
		})
	}

	m.mu.Lock()
	// Adopt shards a previous run of this job completed durably. A
	// replayed result only counts when its geometry matches the
	// current split (a changed ShardSystems invalidates it).
	replayed := m.shardResults[j.id]
	for _, sh := range lj.shards {
		sr, ok := replayed[sh.idx]
		if !ok {
			continue
		}
		if sr.lo != sh.lo || sr.hi != sh.hi || len(sr.records) != sh.hi-sh.lo {
			delete(replayed, sh.idx)
			continue
		}
		sh.state = leaseDone
		for _, rec := range sr.records {
			m.engine.Add(rec.Engine)
		}
		applyShardProgressLocked(j, sr.records)
	}
	for idx := range replayed {
		if idx < 0 || idx >= len(lj.shards) {
			delete(replayed, idx)
		}
	}
	if m.shardResults[j.id] == nil {
		m.shardResults[j.id] = map[int]shardResult{}
	}
	for _, sh := range lj.shards {
		if sh.state != leaseDone {
			lj.remaining++
		}
	}
	waiting := lj.remaining > 0
	if waiting {
		m.leaseJobs[j.id] = lj
	}
	m.publishLocked(j, "update")
	m.mu.Unlock()

	if waiting {
		select {
		case <-lj.done:
		case <-ctx.Done():
		}
		m.mu.Lock()
		delete(m.leaseJobs, j.id)
		for _, sh := range lj.shards {
			if sh.state == leaseGranted {
				// The job is leaving (done, cancelled or shutting
				// down); outstanding leases answer 410 from now on.
				m.releaseShardLocked(sh, ErrLeaseGone)
			}
		}
		m.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	m.mu.Lock()
	results := m.shardResults[j.id]
	shardRecs := make([][]campaign.Record, 0, len(lj.shards))
	for _, sh := range lj.shards {
		sr, ok := results[sh.idx]
		if !ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("jobs: distributed campaign lost shard %d", sh.idx)
		}
		shardRecs = append(shardRecs, sr.records)
	}
	m.mu.Unlock()
	merged := campaign.MergeShardRecords(shardRecs)
	// The live Best above follows shard completion order; settle the
	// whole progress block deterministically from the merged stream,
	// exactly as a serial run would have accumulated it.
	m.updateProgress(j, func(p *Progress) {
		p.Total, p.Completed = total, total
		p.Schedulable, p.Best, p.BestCost = 0, "", 0
		p.Engine = campaign.EngineStats{}
		for _, rec := range merged {
			if rec.Schedulable {
				p.Schedulable++
			}
			if rec.Best != "" && (p.Best == "" || rec.BestCost < p.BestCost) {
				p.Best = rec.Name
				p.BestCost = rec.BestCost
			}
			p.Engine.Add(rec.Engine)
		}
	})
	return &Result{Records: merged}, nil
}

// applyShardProgressLocked folds one completed shard's records into
// the job's live progress, mirroring the serial campaign's emit hook.
func applyShardProgressLocked(j *job, recs []campaign.Record) {
	for _, rec := range recs {
		j.progress.Completed++
		if rec.Schedulable {
			j.progress.Schedulable++
		}
		if rec.Best != "" && (j.progress.Best == "" || rec.BestCost < j.progress.BestCost) {
			j.progress.Best = rec.Name
			j.progress.BestCost = rec.BestCost
		}
		j.progress.Engine.Add(rec.Engine)
	}
}

// ClaimLease registers workerID as a live peer and grants it a pending
// shard: preferably one the consistent-hash ring routes to it (warm
// eval cache), otherwise the oldest pending shard (work stealing).
// A nil grant with nil error means no work is available.
func (m *Manager) ClaimLease(workerID string) (*ShardGrant, error) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	now := time.Now()
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.leaseWorkers[workerID] = now
	ljs := make([]*leaseJob, 0, len(m.leaseJobs))
	for _, lj := range m.leaseJobs {
		ljs = append(ljs, lj)
	}
	sort.Slice(ljs, func(a, b int) bool { return ljs[a].j.seq < ljs[b].j.seq })
	ring := buildRing(workerIDs(m.leaseWorkers))
	var pick *leaseShard
	var pickLJ *leaseJob
	affinity := false
scan:
	for _, lj := range ljs {
		for _, sh := range lj.shards {
			if sh.state != leasePending {
				continue
			}
			if ring.owner(sh.key) == workerID {
				pick, pickLJ, affinity = sh, lj, true
				break scan
			}
			if pick == nil {
				pick, pickLJ = sh, lj
			}
		}
	}
	if pick == nil {
		m.mu.Unlock()
		return nil, nil
	}
	pick.state = leaseGranted
	pick.attempt++
	pick.worker = workerID
	pick.leaseID = newLeaseID()
	pick.expiry = now.Add(m.opts.LeaseTTL)
	m.leaseIndex[pick.leaseID] = pick
	m.leaseOwner[pick.leaseID] = pickLJ
	g := pickLJ.grantFor(pick, m.opts.LeaseTTL)
	rec := StoreRecord{Type: recordLease, ID: pickLJ.j.id, Time: now, Lease: &LeaseEvent{
		Event: leaseEventGrant, LeaseID: pick.leaseID,
		Shard: pick.idx, Lo: pick.lo, Hi: pick.hi,
		Worker: workerID, Attempt: pick.attempt,
	}}
	m.mu.Unlock()
	// Best-effort audit record: a grant that never persists costs
	// nothing — expiry re-queues the shard either way.
	m.appendStatus(rec)
	m.opts.Metrics.observeLeaseGranted(affinity)
	return g, nil
}

// grantFor slices the job's payload template for one shard.
func (lj *leaseJob) grantFor(sh *leaseShard, ttl time.Duration) *ShardGrant {
	g := &ShardGrant{
		LeaseID: sh.leaseID, JobID: lj.j.id,
		Shard: sh.idx, Lo: sh.lo, Hi: sh.hi, Attempt: sh.attempt,
		TTLMs:         ttl.Milliseconds(),
		TraceParent:   lj.grant.traceparent,
		Algorithms:    lj.grant.algorithms,
		SAWarmFromOBC: lj.grant.saWarm,
		Tuning:        lj.grant.tuning,
	}
	if len(lj.grant.systems) > 0 {
		g.Systems = lj.grant.systems[sh.lo:sh.hi]
	} else {
		g.Specs = lj.grant.specs[sh.lo:sh.hi]
	}
	return g
}

// RenewLease extends a held lease's expiry and returns the new
// deadline. Stale or retired leases fail with the error the shard was
// retired under.
func (m *Manager) RenewLease(leaseID, workerID string) (time.Time, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return time.Time{}, ErrClosed
	}
	sh := m.leaseIndex[leaseID]
	if sh == nil {
		return time.Time{}, m.leaseErrLocked(leaseID)
	}
	if sh.worker != workerID {
		return time.Time{}, ErrLeaseStale
	}
	now := time.Now()
	m.leaseWorkers[workerID] = now
	sh.expiry = now.Add(m.opts.LeaseTTL)
	return sh.expiry, nil
}

// CompleteLease finishes a shard: a failure report re-queues it for
// another attempt; a success is appended durably (like Submit, the
// fsync happens outside the manager lock under the shared gate) before
// the worker is acknowledged, then folded into the job. Completing the
// last shard wakes the waiting job.
func (m *Manager) CompleteLease(leaseID, workerID string, records []campaign.Record, workerErr string) error {
	m.gate.RLock()
	defer m.gate.RUnlock()
	now := time.Now()
	m.mu.Lock()
	sh := m.leaseIndex[leaseID]
	if sh == nil {
		err := m.leaseErrLocked(leaseID)
		m.mu.Unlock()
		return err
	}
	if sh.worker != workerID {
		m.mu.Unlock()
		return ErrLeaseStale
	}
	lj := m.leaseOwner[leaseID]
	if lj.j.userCancel {
		// The job is being cancelled and its runner has not yet woken
		// to release the leases as gone; answer that now instead of
		// re-queueing a shard of a job that is leaving.
		m.releaseShardLocked(sh, ErrLeaseGone)
		m.mu.Unlock()
		return ErrLeaseGone
	}
	m.leaseWorkers[workerID] = now
	if workerErr != "" {
		// Worker-reported failure: back to pending for another worker
		// (or another attempt by the same one).
		rec := StoreRecord{Type: recordLease, ID: lj.j.id, Time: now, Lease: &LeaseEvent{
			Event: leaseEventFail, LeaseID: leaseID,
			Shard: sh.idx, Lo: sh.lo, Hi: sh.hi,
			Worker: workerID, Attempt: sh.attempt, Error: workerErr,
		}}
		m.releaseShardLocked(sh, ErrLeaseStale)
		m.mu.Unlock()
		m.appendStatus(rec)
		m.opts.Metrics.observeLeaseFailed()
		m.opts.Logf("jobs: shard %d of %s failed on %s (re-queued): %s", sh.idx, lj.j.id, workerID, workerErr)
		return nil
	}
	if len(records) != sh.hi-sh.lo {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d records for %d systems", ErrLeasePayload, len(records), sh.hi-sh.lo)
	}
	// Rebase the shard-local indices onto the global population so the
	// merged stream is indistinguishable from a serial run's.
	rebased := make([]campaign.Record, len(records))
	for i, rec := range records {
		rec.Index = sh.lo + i
		rebased[i] = rec
	}
	ev := &LeaseEvent{
		Event: leaseEventComplete, LeaseID: leaseID,
		Shard: sh.idx, Lo: sh.lo, Hi: sh.hi,
		Worker: workerID, Attempt: sh.attempt, Records: rebased,
	}
	jobID := lj.j.id
	m.mu.Unlock()

	appendStart := time.Now()
	err := m.store.Append(StoreRecord{Type: recordLease, ID: jobID, Time: now, Lease: ev})
	m.opts.Metrics.observeAppend(time.Since(appendStart), err)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	m.dirty.Add(1)

	m.mu.Lock()
	// Revalidate: the lease may have expired during the fsync. The
	// durable record is harmless then — replay keeps the first
	// complete per shard, and a re-granted attempt recomputes the
	// same deterministic records anyway.
	if cur := m.leaseIndex[leaseID]; cur == nil || cur != sh || sh.state != leaseGranted || sh.worker != workerID {
		err := m.leaseErrLocked(leaseID)
		m.mu.Unlock()
		if errors.Is(err, ErrLeaseNotFound) {
			err = ErrLeaseStale
		}
		return err
	}
	sh.state = leaseDone
	m.retireLeaseLocked(leaseID, ErrLeaseStale)
	delete(m.leaseIndex, leaseID)
	delete(m.leaseOwner, leaseID)
	sh.worker, sh.leaseID = "", ""
	byShard := m.shardResults[jobID]
	if byShard == nil {
		byShard = map[int]shardResult{}
		m.shardResults[jobID] = byShard
	}
	if _, done := byShard[sh.idx]; !done {
		byShard[sh.idx] = shardResult{lo: sh.lo, hi: sh.hi, records: rebased}
	}
	for _, rec := range rebased {
		m.engine.Add(rec.Engine)
	}
	applyShardProgressLocked(lj.j, rebased)
	m.publishLocked(lj.j, "update")
	lj.remaining--
	if lj.remaining == 0 {
		close(lj.done)
	}
	m.mu.Unlock()
	m.opts.Metrics.observeLeaseCompleted()
	return nil
}

// Leases snapshots every shard of every running distributed job plus
// the recently seen worker peers, for GET /v1/leases and tests.
func (m *Manager) Leases() LeaseList {
	m.mu.Lock()
	defer m.mu.Unlock()
	ljs := make([]*leaseJob, 0, len(m.leaseJobs))
	for _, lj := range m.leaseJobs {
		ljs = append(ljs, lj)
	}
	sort.Slice(ljs, func(a, b int) bool { return ljs[a].j.seq < ljs[b].j.seq })
	list := LeaseList{Leases: []Lease{}, Workers: []LeaseWorkerInfo{}}
	for _, lj := range ljs {
		for _, sh := range lj.shards {
			l := Lease{
				ID: sh.leaseID, JobID: lj.j.id,
				Shard: sh.idx, Lo: sh.lo, Hi: sh.hi,
				State: sh.state.String(), Worker: sh.worker, Attempt: sh.attempt,
			}
			if sh.state == leaseGranted {
				l.ExpiresAt = sh.expiry
			}
			list.Leases = append(list.Leases, l)
		}
	}
	for id, seen := range m.leaseWorkers {
		list.Workers = append(list.Workers, LeaseWorkerInfo{ID: id, LastSeen: seen})
	}
	sort.Slice(list.Workers, func(a, b int) bool { return list.Workers[a].ID < list.Workers[b].ID })
	return list
}

// leaseErrLocked distinguishes a lease that never existed from one
// that was retired (and why).
func (m *Manager) leaseErrLocked(leaseID string) error {
	if err, ok := m.leaseRetired[leaseID]; ok {
		return err
	}
	return ErrLeaseNotFound
}

// retireLeaseLocked remembers why a lease ID is dead, bounded FIFO.
func (m *Manager) retireLeaseLocked(leaseID string, reason error) {
	if _, ok := m.leaseRetired[leaseID]; ok {
		return
	}
	m.leaseRetired[leaseID] = reason
	m.leaseRetiredQ = append(m.leaseRetiredQ, leaseID)
	if len(m.leaseRetiredQ) > maxRetiredLeases {
		delete(m.leaseRetired, m.leaseRetiredQ[0])
		m.leaseRetiredQ = m.leaseRetiredQ[1:]
	}
}

// releaseShardLocked retires a shard's current lease (if any) and
// returns the shard to pending — the deterministic re-queue: identity
// unchanged, only the attempt counter advances on the next grant.
func (m *Manager) releaseShardLocked(sh *leaseShard, reason error) {
	if sh.leaseID != "" {
		m.retireLeaseLocked(sh.leaseID, reason)
		delete(m.leaseIndex, sh.leaseID)
		delete(m.leaseOwner, sh.leaseID)
	}
	sh.state = leasePending
	sh.worker, sh.leaseID = "", ""
	sh.expiry = time.Time{}
}

// leaseJanitor periodically expires overdue leases; its tick is a
// quarter of the TTL so a dead worker's shard re-queues promptly.
func (m *Manager) leaseJanitor() {
	defer m.wg.Done()
	tick := m.opts.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 5*time.Second {
		tick = 5 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case now := <-t.C:
			m.mu.Lock()
			idle := len(m.leaseJobs) == 0 && len(m.leaseWorkers) == 0
			m.mu.Unlock()
			if !idle {
				m.expireLeases(now)
			}
		}
	}
}

// expireLeases re-queues every granted shard whose lease outlived its
// TTL and forgets workers silent for several TTLs (so affinity routing
// stops preferring the departed).
func (m *Manager) expireLeases(now time.Time) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	var recs []StoreRecord
	m.mu.Lock()
	for _, lj := range m.leaseJobs {
		for _, sh := range lj.shards {
			if sh.state != leaseGranted || now.Before(sh.expiry) {
				continue
			}
			recs = append(recs, StoreRecord{Type: recordLease, ID: lj.j.id, Time: now, Lease: &LeaseEvent{
				Event: leaseEventExpire, LeaseID: sh.leaseID,
				Shard: sh.idx, Lo: sh.lo, Hi: sh.hi,
				Worker: sh.worker, Attempt: sh.attempt,
			}})
			m.opts.Logf("jobs: lease %s expired (job %s shard %d worker %s); shard re-queued",
				sh.leaseID, lj.j.id, sh.idx, sh.worker)
			m.releaseShardLocked(sh, ErrLeaseStale)
		}
	}
	for id, seen := range m.leaseWorkers {
		if now.Sub(seen) > 3*m.opts.LeaseTTL {
			delete(m.leaseWorkers, id)
		}
	}
	m.mu.Unlock()
	for _, rec := range recs {
		m.appendStatus(rec)
		m.opts.Metrics.observeLeaseExpired()
	}
}

// replayLeaseLocked applies one lease record during store replay. Only
// well-formed "complete" events for known jobs count, and the first
// complete per (job, shard) is sticky — duplicate grants, late
// completes and out-of-order expires can never resurrect or overwrite
// a completed shard.
func (m *Manager) replayLeaseLocked(rec StoreRecord) {
	ev := rec.Lease
	if rec.ID == "" || ev == nil || ev.Event != leaseEventComplete {
		return
	}
	if ev.Shard < 0 || ev.Lo < 0 || ev.Hi < ev.Lo || len(ev.Records) != ev.Hi-ev.Lo {
		return
	}
	if m.jobs[rec.ID] == nil {
		return
	}
	byShard := m.shardResults[rec.ID]
	if byShard == nil {
		byShard = map[int]shardResult{}
		m.shardResults[rec.ID] = byShard
	}
	if _, done := byShard[ev.Shard]; done {
		return
	}
	recs := append([]campaign.Record(nil), ev.Records...)
	for i := range recs {
		recs[i].Index = ev.Lo + i
	}
	byShard[ev.Shard] = shardResult{lo: ev.Lo, hi: ev.Hi, records: recs}
}

// leaseSnapshotLocked serialises the completed shards of one
// non-terminal job as lease complete records, so compaction preserves
// them; terminal jobs carry their result in the status record instead.
func (m *Manager) leaseSnapshotLocked(j *job, now time.Time) []StoreRecord {
	byShard := m.shardResults[j.id]
	if len(byShard) == 0 || j.status.Terminal() {
		return nil
	}
	idxs := make([]int, 0, len(byShard))
	for idx := range byShard {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	recs := make([]StoreRecord, 0, len(idxs))
	for _, idx := range idxs {
		sr := byShard[idx]
		recs = append(recs, StoreRecord{Type: recordLease, ID: j.id, Time: now, Lease: &LeaseEvent{
			Event: leaseEventComplete, Shard: idx, Lo: sr.lo, Hi: sr.hi, Records: sr.records,
		}})
	}
	return recs
}

// leaseCounts backs the lease gauges.
func (m *Manager) leaseCounts() (pending, granted int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, lj := range m.leaseJobs {
		for _, sh := range lj.shards {
			switch sh.state {
			case leasePending:
				pending++
			case leaseGranted:
				granted++
			}
		}
	}
	return pending, granted
}

// leaseWorkerCount backs the worker gauge.
func (m *Manager) leaseWorkerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.leaseWorkers)
}
