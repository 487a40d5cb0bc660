package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/sweep"
)

// CoordinatorOptions configures the shard coordinator.
type CoordinatorOptions struct {
	// Listen is the control-protocol listen address (e.g. 127.0.0.1:0).
	Listen string
	// Sweep is the full sweep configuration. Workers must be started
	// with an identical configuration; the Hello handshake enforces it
	// by comparing sweep IDs.
	Sweep sweep.Options
	// Shards is the partition count (DefaultShards when 0). More shards
	// than workers keeps reassignment granular.
	Shards int
	// LeaseTTL is how long a shard lease lives without renewal before
	// the monitor reassigns it (default 5 s). Workers renew at TTL/3.
	LeaseTTL time.Duration
	// Log, when non-nil, receives progress and fault notices.
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives the shard_* families plus the
	// final warm pass's sweep_cache_* counters.
	Metrics *obs.Metrics
}

// Stats is a point-in-time snapshot of the coordinator's counters — the
// numbers behind the shard_* metric families.
type Stats struct {
	// Shards is the partition count; ShardsDone how many completed.
	Shards, ShardsDone int
	// Cells is the executable (non-skipped) cell count of the plan.
	Cells int
	// CellsComputed/CellsCached sum the per-shard completion reports:
	// cached cells were replayed from the shared cache (including cells
	// a dead worker computed before dying).
	CellsComputed, CellsCached int
	// LeasesGranted and Renewals count lease traffic; Reassigned counts
	// shards taken back from dead or silent workers.
	LeasesGranted, Renewals, Reassigned int
	// WorkersSeen counts distinct worker names; WorkersLive the
	// currently connected ones.
	WorkersSeen, WorkersLive int
	// Rejected counts corrupt frames and refused Hellos.
	Rejected int
}

type shardStatus uint8

const (
	shardPending shardStatus = iota
	shardLeased
	shardDone
)

type shardState struct {
	status shardStatus
	holder string
	expiry time.Time
}

// Coordinator partitions a sweep's cell matrix and leases the shards to
// worker processes. Create with NewCoordinator (which starts listening
// immediately), point workers at Addr(), then Wait for the merged result.
type Coordinator struct {
	opts    CoordinatorOptions
	sweepID string
	plan    []sweep.PlannedCell
	parts   [][]int
	ln      net.Listener

	mu      sync.Mutex
	shards  []shardState
	pending int             // shards not yet done
	workers map[string]bool // seen worker names
	live    map[string]int  // open conns per worker name
	stats   Stats
	done    chan struct{}
	stopped bool

	stopMonitor chan struct{}
}

// NewCoordinator plans and partitions the sweep, binds the listener and
// starts serving leases. The sweep itself does not execute here until
// Wait's final warm pass — workers do the computing.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Sweep.Dir == "" {
		return nil, fmt.Errorf("shard: coordinator requires a cache dir")
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 5 * time.Second
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	// The cache directory must exist before workers race to open it.
	if _, err := sweep.OpenCache(opts.Sweep.Dir, opts.Sweep.Salt); err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:        opts,
		sweepID:     opts.Sweep.ID(),
		plan:        sweep.Plan(opts.Sweep),
		workers:     map[string]bool{},
		live:        map[string]int{},
		done:        make(chan struct{}),
		stopMonitor: make(chan struct{}),
	}
	c.parts = Partition(c.plan, opts.Shards)
	c.shards = make([]shardState, opts.Shards)
	c.stats.Shards = opts.Shards
	c.stats.Cells = len(c.plan)
	// Empty shards (rendezvous imbalance on tiny plans) are born done.
	for s := range c.parts {
		if len(c.parts[s]) == 0 {
			c.shards[s].status = shardDone
			c.stats.ShardsDone++
		}
	}
	c.pending = opts.Shards - c.stats.ShardsDone
	c.registerMetrics()
	if c.pending == 0 {
		close(c.done)
	}

	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("shard: coordinator listen: %w", err)
	}
	c.ln = ln
	go c.acceptLoop()
	go c.monitor()
	return c, nil
}

// Addr returns the bound control address workers connect to.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Coordinator) registerMetrics() {
	m := c.opts.Metrics
	if !m.Enabled() {
		return
	}
	m.SetHelp("shard_shards", "Partition count of the sweep's cell matrix.")
	m.SetHelp("shard_cells", "Executable (non-skipped) cells in the sweep plan.")
	m.SetHelp("shard_shards_done_total", "Shards reported complete by workers.")
	m.SetHelp("shard_cells_done_total", "Cells completed across all shard reports.")
	m.SetHelp("shard_cells_computed_total", "Cells workers computed fresh.")
	m.SetHelp("shard_cells_cached_total", "Cells workers replayed from the shared cache (including a dead worker's completed cells after reassignment).")
	m.SetHelp("shard_leases_granted_total", "Shard leases handed to workers.")
	m.SetHelp("shard_lease_renewals_total", "Mid-shard lease renewals.")
	m.SetHelp("shard_shards_reassigned_total", "Leases reclaimed from dead or silent workers and returned to the pending pool.")
	m.SetHelp("shard_workers_seen_total", "Distinct worker names that completed the Hello handshake.")
	m.SetHelp("shard_workers_live", "Currently connected workers.")
	m.SetHelp("shard_frames_rejected_total", "Corrupt control frames and refused Hello handshakes.")
	m.Set("shard_shards", float64(c.stats.Shards))
	m.Set("shard_cells", float64(c.stats.Cells))
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed by Wait/Close
		}
		go c.handleConn(conn)
	}
}

// monitor reclaims expired leases so a SIGKILLed worker's shard goes
// back to the pending pool even if its TCP teardown never surfaced.
func (c *Coordinator) monitor() {
	tick := time.NewTicker(c.opts.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stopMonitor:
			return
		case now := <-tick.C:
			c.mu.Lock()
			for s := range c.shards {
				st := &c.shards[s]
				if st.status == shardLeased && now.After(st.expiry) {
					c.opts.Log("shard: lease on shard %d held by %q expired; reassigning", s, st.holder)
					st.status, st.holder = shardPending, ""
					c.stats.Reassigned++
					c.opts.Metrics.Add("shard_shards_reassigned_total", 1)
				}
			}
			c.mu.Unlock()
		}
	}
}

// handleConn speaks the strict request/response protocol with one
// worker. Any framing error or EOF drops the connection and releases
// the worker's leases immediately (faster than waiting out the TTL).
func (c *Coordinator) handleConn(conn net.Conn) {
	var worker string // set by a successful Hello
	defer func() {
		conn.Close()
		if worker != "" {
			c.releaseWorker(worker)
		}
	}()
	for {
		req, err := readMsg(conn)
		if err != nil {
			if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) {
				c.countReject()
				c.opts.Log("shard: dropping connection: %v", err)
			}
			return
		}
		var resp *Msg
		switch req.Type {
		case MsgHello:
			resp = c.hello(req, &worker)
		case MsgLeaseReq:
			if worker == "" {
				return // protocol violation: lease before Hello
			}
			resp = c.grant(worker)
		case MsgRenew:
			if worker == "" {
				return
			}
			resp = c.renew(worker, req)
		case MsgShardDone:
			if worker == "" {
				return
			}
			resp = c.shardDone(worker, req)
		default:
			c.countReject()
			return
		}
		if err := writeMsg(conn, resp); err != nil {
			return
		}
	}
}

func (c *Coordinator) countReject() {
	c.mu.Lock()
	c.stats.Rejected++
	c.mu.Unlock()
	c.opts.Metrics.Add("shard_frames_rejected_total", 1)
}

func (c *Coordinator) hello(req *Msg, worker *string) *Msg {
	if req.SweepID != c.sweepID {
		c.countReject()
		return &Msg{Type: MsgHelloAck, OK: false,
			Reason: fmt.Sprintf("sweep configuration mismatch: worker %s, coordinator %s (same flags on both sides?)",
				req.SweepID[:12], c.sweepID[:12])}
	}
	if !validWorkerName(req.Name) {
		c.countReject()
		return &Msg{Type: MsgHelloAck, OK: false, Reason: fmt.Sprintf("worker name %q must use only [A-Za-z0-9._-]", req.Name)}
	}
	*worker = req.Name
	c.mu.Lock()
	if !c.workers[req.Name] {
		c.workers[req.Name] = true
		c.stats.WorkersSeen++
		c.opts.Metrics.Add("shard_workers_seen_total", 1)
	}
	c.live[req.Name]++
	c.stats.WorkersLive = len(c.live)
	c.opts.Metrics.Set("shard_workers_live", float64(len(c.live)))
	c.mu.Unlock()
	c.opts.Log("shard: worker %q connected", req.Name)
	return &Msg{Type: MsgHelloAck, OK: true, Shards: uint32(c.opts.Shards)}
}

func (c *Coordinator) grant(worker string) *Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == 0 {
		return &Msg{Type: MsgAllDone}
	}
	for s := range c.shards {
		if c.shards[s].status != shardPending {
			continue
		}
		c.shards[s] = shardState{status: shardLeased, holder: worker, expiry: time.Now().Add(c.opts.LeaseTTL)}
		c.stats.LeasesGranted++
		c.opts.Metrics.Add("shard_leases_granted_total", 1)
		c.opts.Log("shard: leased shard %d (%d cells) to %q", s, len(c.parts[s]), worker)
		return &Msg{Type: MsgLeaseGrant, Shard: uint32(s), Shards: uint32(c.opts.Shards), TTL: c.opts.LeaseTTL}
	}
	// Everything is leased but not all done: the worker should retry
	// after a fraction of the TTL (a dying holder's shard reappears then).
	return &Msg{Type: MsgNoWork, Retry: c.opts.LeaseTTL / 2}
}

func (c *Coordinator) renew(worker string, req *Msg) *Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := int(req.Shard)
	if s >= len(c.shards) || c.shards[s].status != shardLeased || c.shards[s].holder != worker {
		// Revoked: the monitor reclaimed it (or it was never this
		// worker's). The worker aborts the shard; its completed cells
		// are in the cache either way.
		return &Msg{Type: MsgRenewAck, OK: false}
	}
	c.shards[s].expiry = time.Now().Add(c.opts.LeaseTTL)
	c.stats.Renewals++
	c.opts.Metrics.Add("shard_lease_renewals_total", 1)
	return &Msg{Type: MsgRenewAck, OK: true}
}

func (c *Coordinator) shardDone(worker string, req *Msg) *Msg {
	c.mu.Lock()
	s := int(req.Shard)
	if s >= len(c.shards) {
		c.mu.Unlock()
		c.countReject()
		return &Msg{Type: MsgDoneAck, OK: false}
	}
	if c.shards[s].status != shardDone {
		// Accept completion even from a worker whose lease was
		// reclaimed — the cells are content-addressed in the shared
		// cache, so a late finisher and a reassigned runner produced
		// identical entries.
		c.shards[s] = shardState{status: shardDone}
		c.pending--
		c.stats.ShardsDone++
		c.stats.CellsComputed += int(req.Computed)
		c.stats.CellsCached += int(req.Cached)
		c.opts.Metrics.Add("shard_shards_done_total", 1)
		c.opts.Metrics.Add("shard_cells_done_total", int64(req.Computed+req.Cached))
		c.opts.Metrics.Add("shard_cells_computed_total", int64(req.Computed))
		c.opts.Metrics.Add("shard_cells_cached_total", int64(req.Cached))
		c.opts.Log("shard: shard %d done by %q (%d computed, %d cached); %d shard(s) remaining",
			s, worker, req.Computed, req.Cached, c.pending)
		if c.pending == 0 {
			close(c.done)
		}
	}
	c.mu.Unlock()
	return &Msg{Type: MsgDoneAck, OK: true}
}

// releaseWorker returns a disconnected worker's leases to the pool.
func (c *Coordinator) releaseWorker(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.live[name]; n > 1 {
		c.live[name] = n - 1
	} else {
		delete(c.live, name)
	}
	c.stats.WorkersLive = len(c.live)
	c.opts.Metrics.Set("shard_workers_live", float64(len(c.live)))
	for s := range c.shards {
		st := &c.shards[s]
		if st.status == shardLeased && st.holder == name {
			c.opts.Log("shard: worker %q disconnected holding shard %d; reassigning", name, s)
			st.status, st.holder = shardPending, ""
			c.stats.Reassigned++
			c.opts.Metrics.Add("shard_shards_reassigned_total", 1)
		}
	}
}

// Close stops accepting workers and tears the coordinator down. Call it
// once Wait has returned, or instead of Wait to abandon the sweep. After
// a completed sweep, Close first waits up to one lease TTL for connected
// workers to hang up: a worker idling in its NoWork back-off (TTL/2)
// polls once more, hears AllDone and exits cleanly, instead of reading
// EOF because the owner process exited right after Close.
func (c *Coordinator) Close() {
	c.mu.Lock()
	stopped := c.stopped
	c.stopped = true
	c.mu.Unlock()
	if stopped {
		return
	}
	select {
	case <-c.done:
		deadline := time.Now().Add(c.opts.LeaseTTL)
		for c.Stats().WorkersLive > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	default:
	}
	close(c.stopMonitor)
	c.ln.Close()
}

// Wait blocks until every shard is done (or ctx fires), then runs the
// final warm pass: a plain sweep.Run that replays the whole sweep from
// the now-fully-populated shared cache in this single process. Because
// cached replay is proven byte-identical to recomputation (the sweep
// package's equivalence suite), the returned Result's CSV and report are
// byte-identical to an uninterrupted single-process sweep — no matter
// how many workers ran, died, or were reassigned. Any cell that somehow never reached the
// cache is recomputed here, so the output is correct even under total
// worker loss.
//
// The control port stays open until Close: a worker that arrives after
// the last shard is done (its peers drained a warm cache before it
// dialed) is told the sweep is complete and exits cleanly, instead of
// being refused.
func (c *Coordinator) Wait(ctx context.Context) (*sweep.Result, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		c.Close()
		return nil, ctx.Err()
	}
	final := c.opts.Sweep
	if final.Log == nil {
		final.Log = c.opts.Log
	}
	if final.Metrics == nil {
		final.Metrics = c.opts.Metrics
	}
	return sweep.Run(ctx, final)
}

// validWorkerName bounds the name a worker presents at Hello: short,
// [A-Za-z0-9._-] only, and not starting with '.' or '-', so an outside
// peer cannot smuggle control characters or option-like strings into
// logs and lease bookkeeping.
func validWorkerName(s string) bool {
	if s == "" || len(s) > maxName || s[0] == '.' || s[0] == '-' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
