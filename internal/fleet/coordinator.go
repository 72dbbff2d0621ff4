package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dstress/internal/farm"
	"dstress/internal/ga"
)

// ErrUnknownWorker reports an id the coordinator does not know — never
// joined, expired, or forgotten across a coordinator restart. Workers react
// by re-joining.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

// Config tunes the coordinator's failure detection. The zero value selects
// the defaults.
type Config struct {
	// LeaseTTL is the hard deadline for a leased shard's report. It must
	// exceed the worst-case shard evaluation time: an expired lease is
	// re-queued onto another worker, which duplicates work (never corrupts
	// it — the first report wins, and duplicates produce identical values).
	// Default 90s.
	LeaseTTL time.Duration
	// WorkerTTL deregisters a worker this long after its last heartbeat,
	// lease or report; its leased shards re-queue immediately. Default 20s.
	WorkerTTL time.Duration
	// SweepEvery is how often an active batch checks for expired leases and
	// dead workers. Default 100ms.
	SweepEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 90 * time.Second
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 20 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 100 * time.Millisecond
	}
	return c
}

// shard states.
const (
	shardPending = iota // queued, waiting for a lease
	shardLeased         // held by a worker
	shardLocal          // reclaimed by its session for local evaluation
)

// shard is the coordinator-side view of a leased unit.
type shard struct {
	id       string
	b        *batch
	tasks    []farm.Assigned // local handles: reclaim needs the live RNGs
	wire     []Task          // shipped form, built once at submission
	state    int
	worker   string // current lease holder
	expires  time.Time
	attempts int
}

// batch is one in-flight EvaluateBatch call.
type batch struct {
	evalCtx   json.RawMessage
	ctxDigest string // contextDigest(evalCtx), computed once at submission
	out       []float64
	remaining int // tasks not yet reported
	err       error
	done      chan struct{}
	shards    []*shard
}

func (b *batch) fail(err error) {
	if b.err == nil {
		b.err = err
	}
	b.finish()
}

func (b *batch) finish() {
	select {
	case <-b.done:
	default:
		close(b.done)
	}
}

// workerInfo is one registered worker.
type workerInfo struct {
	id       string
	name     string
	joined   time.Time
	lastSeen time.Time
	tasks    int64 // completed evaluations
	shards   int64 // completed shards
	retries  int64 // transport retries, as self-reported via heartbeat
}

// Coordinator owns the fleet: the worker registry and the shard queue every
// session feeds. One coordinator serves every concurrent search of a daemon;
// sessions are cheap per-search views.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	workers  map[string]*workerInfo
	shards   map[string]*shard
	pending  []*shard // FIFO of shards awaiting a lease
	nextID   int64
	notifyCh chan struct{} // closed-and-replaced when pending work appears

	met metrics
}

// NewCoordinator builds a coordinator with the given failure-detection
// configuration (zero value: defaults).
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:      cfg.withDefaults(),
		workers:  make(map[string]*workerInfo),
		shards:   make(map[string]*shard),
		notifyCh: make(chan struct{}),
	}
}

// signalLocked wakes every lease long-poll parked on the notify channel.
func (c *Coordinator) signalLocked() {
	close(c.notifyCh)
	c.notifyCh = make(chan struct{})
}

// sweepLocked enforces the failure timeouts: workers silent past WorkerTTL
// are deregistered, and leased shards whose holder vanished or whose lease
// expired re-queue. Called lazily from every public entry point, plus the
// session tick while a batch is in flight.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.cfg.WorkerTTL {
			delete(c.workers, id)
			c.met.workerExpiries.Add(1)
		}
	}
	requeued := false
	for _, sh := range c.shards {
		if sh.state != shardLeased {
			continue
		}
		_, alive := c.workers[sh.worker]
		if alive && now.Before(sh.expires) {
			continue
		}
		if alive {
			c.met.leaseExpiries.Add(1)
		}
		sh.state = shardPending
		sh.worker = ""
		c.pending = append(c.pending, sh)
		c.met.requeues.Add(1)
		requeued = true
	}
	if requeued {
		c.signalLocked()
	}
}

// touchLocked refreshes a worker's liveness, failing for unknown ids.
func (c *Coordinator) touchLocked(workerID string, now time.Time) (*workerInfo, error) {
	w, ok := c.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = now
	return w, nil
}

// Join registers a worker and returns its id and the heartbeat interval the
// coordinator expects.
func (c *Coordinator) Join(name string) (id string, heartbeat time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.sweepLocked(now)
	c.nextID++
	id = fmt.Sprintf("w%d", c.nextID)
	c.workers[id] = &workerInfo{id: id, name: name, joined: now, lastSeen: now}
	c.met.joins.Add(1)
	c.signalLocked() // a parked session tick may now dispatch remotely
	return id, c.cfg.WorkerTTL / 3
}

// Heartbeat refreshes a worker's liveness. retries is the worker's
// cumulative transport-retry counter, recorded for the fleet metrics.
func (c *Coordinator) Heartbeat(workerID string, retries int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.sweepLocked(now)
	w, err := c.touchLocked(workerID, now)
	if err != nil {
		return err
	}
	if retries > w.retries {
		w.retries = retries
	}
	return nil
}

// LiveWorkers returns the number of registered, non-expired workers.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(time.Now())
	return len(c.workers)
}

// Lease hands the worker the oldest pending shard, long-polling up to wait
// for one to appear. A nil shard with a nil error means the wait budget
// passed with no work. cachedDigests lists evaluation contexts the worker
// already holds (see leaseRequest.Contexts): a shard whose context matches
// ships digest-only.
func (c *Coordinator) Lease(ctx context.Context, workerID string,
	wait time.Duration, cachedDigests ...string) (*Shard, error) {
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		now := time.Now()
		c.sweepLocked(now)
		w, err := c.touchLocked(workerID, now)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if len(c.pending) > 0 {
			sh := c.pending[0]
			c.pending = c.pending[1:]
			sh.state = shardLeased
			sh.worker = w.id
			sh.expires = now.Add(c.cfg.LeaseTTL)
			sh.attempts++
			out := &Shard{
				ID:            sh.id,
				ContextDigest: sh.b.ctxDigest,
				Tasks:         sh.wire,
				LeaseS:        c.cfg.LeaseTTL.Seconds(),
			}
			cached := false
			for _, d := range cachedDigests {
				if d == sh.b.ctxDigest {
					cached = true
					break
				}
			}
			if !cached {
				out.Context = sh.b.evalCtx
			} else {
				c.met.contextsElided.Add(1)
			}
			c.mu.Unlock()
			return out, nil
		}
		ch := c.notifyCh
		c.mu.Unlock()

		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		// Cap the park so the long poll also re-checks liveness windows.
		park := remaining
		if park > c.cfg.SweepEvery*10 {
			park = c.cfg.SweepEvery * 10
		}
		t := time.NewTimer(park)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// Report delivers a shard's results (or its evaluation failure). Late
// reports — the shard was re-queued, completed elsewhere, or its batch is
// gone — are absorbed: the values of a duplicate evaluation are identical by
// the determinism contract, so there is nothing to reconcile. The returned
// error only ever concerns the worker's registration, so a worker whose
// lease was stolen learns to re-join rather than re-send.
func (c *Coordinator) Report(workerID, shardID string, results []TaskResult,
	evalErr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.sweepLocked(now)
	w, werr := c.touchLocked(workerID, now)

	sh, ok := c.shards[shardID]
	if !ok || sh.state == shardLocal {
		// Gone, withdrawn, or reclaimed by its session for local evaluation:
		// the session owns completion now, so absorb the duplicate.
		c.met.lateReports.Add(1)
		return werr
	}
	if sh.state == shardLeased && sh.worker != workerID {
		// Re-leased to someone else while this report was in flight: accept
		// it anyway (first report wins) and note the duplication.
		c.met.lateReports.Add(1)
	}

	if evalErr != "" {
		c.met.evalFailures.Add(1)
		c.dropBatchLocked(sh.b, fmt.Errorf("fleet: worker %s: %s", workerID, evalErr))
		return werr
	}

	want := make(map[int]bool, len(sh.tasks))
	for _, t := range sh.tasks {
		want[t.Idx] = true
	}
	if len(results) != len(sh.tasks) {
		c.dropBatchLocked(sh.b, fmt.Errorf("fleet: shard %s: %d results for %d tasks",
			shardID, len(results), len(sh.tasks)))
		return werr
	}
	for _, r := range results {
		if !want[r.Index] {
			c.dropBatchLocked(sh.b, fmt.Errorf("fleet: shard %s: unexpected result index %d",
				shardID, r.Index))
			return werr
		}
		sh.b.out[r.Index] = r.Fitness
	}
	c.completeShardLocked(sh)
	c.met.remoteTasks.Add(int64(len(sh.tasks)))
	if w != nil {
		w.tasks += int64(len(sh.tasks))
		w.shards++
	}
	return werr
}

// completeShardLocked retires a finished shard and settles its batch when it
// was the last one out.
func (c *Coordinator) completeShardLocked(sh *shard) {
	delete(c.shards, sh.id)
	c.removePendingLocked(sh)
	sh.b.remaining -= len(sh.tasks)
	if sh.b.remaining <= 0 {
		sh.b.finish()
	}
}

// dropBatchLocked fails a batch and removes all its shards from circulation.
func (c *Coordinator) dropBatchLocked(b *batch, err error) {
	for _, sh := range b.shards {
		delete(c.shards, sh.id)
		c.removePendingLocked(sh)
	}
	b.fail(err)
}

func (c *Coordinator) removePendingLocked(sh *shard) {
	for i, p := range c.pending {
		if p == sh {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// submitBatch shards the tasks across the current live workers and queues
// them. Caller guarantees len(tasks) > 0 and at least one live worker was
// seen; the shard layout only affects scheduling, never values.
func (c *Coordinator) submitBatch(evalCtx json.RawMessage, tasks []farm.Assigned,
	out []float64) (*batch, error) {
	wire := make([]Task, len(tasks))
	for i, t := range tasks {
		rec, err := ga.EncodeGenome(t.G)
		if err != nil {
			return nil, err
		}
		wire[i] = Task{Index: t.Idx, Genome: rec, RNG: t.RNG.State()}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(time.Now())
	b := &batch{
		evalCtx:   evalCtx,
		ctxDigest: contextDigest(evalCtx),
		out:       out,
		remaining: len(tasks),
		done:      make(chan struct{}),
	}
	nshards := len(c.workers)
	if nshards < 1 {
		nshards = 1
	}
	if nshards > len(tasks) {
		nshards = len(tasks)
	}
	for i := 0; i < nshards; i++ {
		lo, hi := i*len(tasks)/nshards, (i+1)*len(tasks)/nshards
		c.nextID++
		sh := &shard{
			id:    fmt.Sprintf("s%d", c.nextID),
			b:     b,
			tasks: tasks[lo:hi],
			wire:  wire[lo:hi],
			state: shardPending,
		}
		b.shards = append(b.shards, sh)
		c.shards[sh.id] = sh
		c.pending = append(c.pending, sh)
	}
	c.met.remoteBatches.Add(1)
	c.signalLocked()
	return b, nil
}

// reclaimOrphans pulls the batch's pending shards for local evaluation when
// no live worker remains to lease them. Leased shards are left alone: their
// holders are, by definition of the sweep, still alive.
func (c *Coordinator) reclaimOrphans(b *batch) []*shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(time.Now())
	if len(c.workers) > 0 {
		return nil
	}
	var orphans []*shard
	for _, sh := range b.shards {
		if sh.state == shardPending {
			sh.state = shardLocal
			c.removePendingLocked(sh)
			orphans = append(orphans, sh)
		}
	}
	return orphans
}

// completeLocal retires shards the session evaluated itself.
func (c *Coordinator) completeLocal(shards []*shard, tasks int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range shards {
		c.completeShardLocked(sh)
	}
	c.met.localTasks.Add(tasks)
}

// abandon withdraws a batch's remaining shards (context cancellation, local
// fallback failure). Idempotent; late worker reports for withdrawn shards
// are absorbed as unknown.
func (c *Coordinator) abandon(b *batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range b.shards {
		delete(c.shards, sh.id)
		c.removePendingLocked(sh)
	}
}

// WorkerStatus is one registered worker's point-in-time view.
type WorkerStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Tasks int64  `json:"tasks_done"`
	// Shards is the number of completed (reported) shards.
	Shards  int64 `json:"shards_done"`
	Retries int64 `json:"transport_retries"`
	// TasksPerSec is the worker's completed-evaluation rate since it joined.
	TasksPerSec float64 `json:"tasks_per_sec"`
	LastSeenS   float64 `json:"last_seen_s"`
}

// Status aggregates the fleet counters for /api/v1/metrics.
type Status struct {
	Workers []WorkerStatus `json:"workers"`

	Joins          int64 `json:"joins"`
	LeaseExpiries  int64 `json:"lease_expiries"`
	WorkerExpiries int64 `json:"worker_expiries"`
	Requeues       int64 `json:"requeues"`
	LateReports    int64 `json:"late_reports"`
	EvalFailures   int64 `json:"eval_failures"`

	RemoteBatches int64 `json:"remote_batches"`
	LocalBatches  int64 `json:"local_batches"`
	RemoteTasks   int64 `json:"remote_tasks"`
	LocalTasks    int64 `json:"local_tasks"`
	// ContextsElided counts digest-only leases (worker already held the
	// evaluation context).
	ContextsElided int64 `json:"contexts_elided"`

	PendingShards int `json:"pending_shards"`
	LeasedShards  int `json:"leased_shards"`
}

// Snapshot reads the fleet state.
func (c *Coordinator) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.sweepLocked(now)
	st := Status{
		Joins:          c.met.joins.Load(),
		LeaseExpiries:  c.met.leaseExpiries.Load(),
		WorkerExpiries: c.met.workerExpiries.Load(),
		Requeues:       c.met.requeues.Load(),
		LateReports:    c.met.lateReports.Load(),
		EvalFailures:   c.met.evalFailures.Load(),
		RemoteBatches:  c.met.remoteBatches.Load(),
		LocalBatches:   c.met.localBatches.Load(),
		RemoteTasks:    c.met.remoteTasks.Load(),
		LocalTasks:     c.met.localTasks.Load(),
		ContextsElided: c.met.contextsElided.Load(),
	}
	for _, sh := range c.shards {
		switch sh.state {
		case shardPending:
			st.PendingShards++
		case shardLeased:
			st.LeasedShards++
		}
	}
	for _, w := range c.workers {
		ws := WorkerStatus{
			ID:        w.id,
			Name:      w.name,
			Tasks:     w.tasks,
			Shards:    w.shards,
			Retries:   w.retries,
			LastSeenS: now.Sub(w.lastSeen).Seconds(),
		}
		if up := now.Sub(w.joined).Seconds(); up > 0 {
			ws.TasksPerSec = float64(w.tasks) / up
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, k int) bool {
		return st.Workers[i].ID < st.Workers[k].ID
	})
	return st
}
