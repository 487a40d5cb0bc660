package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/sweep"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// WorkerOptions configures one shard worker process.
type WorkerOptions struct {
	// Addr is the coordinator's control address.
	Addr string
	// Name identifies the worker; it must be unique in the cluster and
	// path-safe (it names the worker's manifest file).
	Name string
	// Sweep must be identical to the coordinator's configuration; the
	// Hello handshake compares sweep IDs and refuses a mismatch.
	Sweep sweep.Options
	// Workers caps in-process cell concurrency per shard
	// (0 = GOMAXPROCS). Purely a wall-clock knob: cell results are
	// byte-identical at any value.
	Workers int
	// Log, when non-nil, receives progress notices.
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives the worker-side sweep_cache_*
	// counters.
	Metrics *obs.Metrics
	// OnCell, when non-nil, fires per completed cell.
	OnCell func(pc *sweep.PlannedCell, cached bool)

	// crashAfterCells, when positive, abruptly severs the connection and
	// aborts after that many completed cells — the test hook behind the
	// in-process worker-death equivalence suite. The CI cluster job does
	// the same thing to a real process with SIGKILL.
	crashAfterCells int
}

// WorkerStats summarizes one worker's contribution.
type WorkerStats struct {
	// ShardsDone counts shards this worker completed and reported.
	ShardsDone int
	// Computed cells ran the simulator here; Cached were replayed from
	// the shared cache (warm entries, or a dead worker's leftovers).
	Computed, Cached int
	// Revoked counts shards abandoned mid-run because the lease was
	// reclaimed (another worker finished them).
	Revoked int
}

// errLeaseRevoked aborts a shard whose lease the coordinator reclaimed.
var errLeaseRevoked = errors.New("shard: lease revoked")

// errCrashInjected is the test hook's abort.
var errCrashInjected = errors.New("shard: injected crash")

// RunWorker connects to the coordinator and executes leased shards until
// the coordinator reports the sweep complete. Cells run through the
// shared content-addressed cache exactly as the in-process scheduler
// would run them (same config construction, same keys), so any mix of
// workers produces the same cache contents.
func RunWorker(ctx context.Context, o WorkerOptions) (WorkerStats, error) {
	var stats WorkerStats
	if o.Name == "" || !validWorkerName(o.Name) {
		return stats, fmt.Errorf("shard: worker name %q must be non-empty and path-safe", o.Name)
	}
	if o.Sweep.Dir == "" {
		return stats, fmt.Errorf("shard: worker requires a cache dir")
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	sweepID := o.Sweep.ID()
	plan := sweep.Plan(o.Sweep)
	cache, err := sweep.OpenCache(o.Sweep.Dir, o.Sweep.Salt)
	if err != nil {
		return stats, err
	}
	cache.SetLog(o.Log)
	cache.SetMetrics(o.Metrics)
	manifest, err := sweep.CreateManifest(WorkerManifestPath(o.Sweep.Dir, o.Name), sweepID)
	if err != nil {
		return stats, err
	}
	defer manifest.Close()

	conn, err := net.DialTimeout("tcp", o.Addr, 10*time.Second)
	if err != nil {
		return stats, fmt.Errorf("shard: worker dial: %w", err)
	}
	defer conn.Close()
	ack, err := call(conn, &Msg{Type: MsgHello, Name: o.Name, SweepID: sweepID})
	if err != nil {
		return stats, fmt.Errorf("shard: worker hello: %w", err)
	}
	if ack.Type != MsgHelloAck {
		return stats, fmt.Errorf("shard: worker hello: unexpected %v reply", ack.Type)
	}
	if !ack.OK {
		return stats, fmt.Errorf("shard: coordinator refused worker: %s", ack.Reason)
	}

	w := &workerRun{opts: &o, plan: plan, cache: cache, manifest: manifest, conn: conn}
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		resp, err := call(conn, &Msg{Type: MsgLeaseReq})
		if err != nil {
			return stats, fmt.Errorf("shard: worker lease request: %w", err)
		}
		switch resp.Type {
		case MsgAllDone:
			o.Log("shard: worker %q done (%d shards, %d computed, %d cached)",
				o.Name, stats.ShardsDone, stats.Computed, stats.Cached)
			return stats, nil
		case MsgNoWork:
			retry := resp.Retry
			if retry <= 0 {
				retry = time.Second
			}
			select {
			case <-time.After(retry):
			case <-ctx.Done():
				return stats, ctx.Err()
			}
		case MsgLeaseGrant:
			computed, cached, err := w.runShard(ctx, resp)
			stats.Computed += computed
			stats.Cached += cached
			switch {
			case err == nil:
				stats.ShardsDone++
			case errors.Is(err, errLeaseRevoked):
				// Another worker owns the shard now; its cells are
				// content-addressed, so whatever we finished still counts
				// (the new holder replays it from the cache).
				stats.Revoked++
				o.Log("shard: worker %q lost the lease on shard %d; moving on", o.Name, resp.Shard)
			default:
				return stats, err
			}
		default:
			return stats, fmt.Errorf("shard: worker lease request: unexpected %v reply", resp.Type)
		}
	}
}

// WorkerManifestPath is where worker name's JSONL manifest lives inside
// the shared cache dir; the coordinator merges these after all shards
// complete.
func WorkerManifestPath(dir, name string) string {
	return filepath.Join(dir, "worker-"+name+".jsonl")
}

// workerRun carries one worker session's execution state.
type workerRun struct {
	opts     *WorkerOptions
	plan     []sweep.PlannedCell
	cache    *sweep.Cache
	manifest *sweep.Manifest
	conn     net.Conn
	parts    [][]int // lazily derived from the granted partition count
	nShards  int
	crashed  atomic.Int64 // completed-cell counter for the crash hook
}

// runShard executes one leased shard: the cells run on a local worker
// pool while this goroutine — the connection's only user — renews the
// lease at TTL/3. Returns errLeaseRevoked if the coordinator reclaimed
// the lease mid-run.
func (w *workerRun) runShard(parent context.Context, grant *Msg) (computed, cached int, err error) {
	if w.parts == nil || w.nShards != int(grant.Shards) {
		w.nShards = int(grant.Shards)
		w.parts = Partition(w.plan, w.nShards)
	}
	idxs := w.parts[grant.Shard]
	w.opts.Log("shard: worker %q running shard %d (%d cells)", w.opts.Name, grant.Shard, len(idxs))

	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var done32 atomic.Int64
	result := make(chan error, 1)
	go func() {
		c, h, rerr := w.runCells(ctx, idxs, &done32)
		computed, cached = c, h
		result <- rerr
	}()

	ttl := grant.TTL
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	tick := time.NewTicker(ttl / 3)
	defer tick.Stop()
	for {
		select {
		case rerr := <-result:
			if rerr != nil {
				return computed, cached, rerr
			}
			ack, cerr := call(w.conn, &Msg{Type: MsgShardDone, Shard: grant.Shard,
				Computed: uint32(computed), Cached: uint32(cached)})
			if cerr != nil {
				return computed, cached, fmt.Errorf("shard: report shard done: %w", cerr)
			}
			if ack.Type != MsgDoneAck || !ack.OK {
				return computed, cached, fmt.Errorf("shard: shard %d completion not acknowledged", grant.Shard)
			}
			return computed, cached, nil
		case <-tick.C:
			ack, cerr := call(w.conn, &Msg{Type: MsgRenew, Shard: grant.Shard, Done: uint32(done32.Load())})
			if cerr != nil {
				cancel()
				<-result
				return computed, cached, fmt.Errorf("shard: lease renewal: %w", cerr)
			}
			if ack.Type != MsgRenewAck || !ack.OK {
				cancel()
				<-result
				return computed, cached, errLeaseRevoked
			}
		case <-ctx.Done():
			<-result
			return computed, cached, ctx.Err()
		}
	}
}

// runCells executes the shard's cells on a pool: cache hit → replay and
// record; miss → simulate (arena-backed, same as the study scheduler),
// store, record. Both paths append to the worker's manifest.
func (w *workerRun) runCells(ctx context.Context, idxs []int, doneCells *atomic.Int64) (computed, cached int, err error) {
	if len(idxs) == 0 {
		return 0, 0, nil
	}
	workers := w.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idxs) {
		workers = len(idxs)
	}
	jobs := make(chan int, len(idxs))
	for _, i := range idxs {
		jobs <- i
	}
	close(jobs)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(e error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = e
		}
		mu.Unlock()
		cancel()
	}
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := arena.New(0)
			tb := new(testbed.Testbed)
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				pc := &w.plan[i]
				if _, ok := w.cache.Load(pc.Config); ok {
					if aerr := w.manifest.Append(pc.ManifestEntry(true)); aerr != nil {
						fail(aerr)
						return
					}
					mu.Lock()
					cached++
					mu.Unlock()
					if !w.cellDone(pc, true, doneCells) {
						fail(errCrashInjected)
						return
					}
					continue
				}
				cfg := pc.Config
				cfg.Testbed.Arena = a
				exp, rerr := core.RunOn(ctx, tb, cfg)
				if rerr != nil {
					if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
						return
					}
					fail(fmt.Errorf("shard: cell %s: %w", pc.Hash[:8], rerr))
					return
				}
				// Store under the plan's pristine config (no arena), the
				// exact key the study scheduler uses.
				if serr := w.cache.Store(pc.Config, exp); serr != nil {
					fail(serr)
					return
				}
				if aerr := w.manifest.Append(pc.ManifestEntry(false)); aerr != nil {
					fail(aerr)
					return
				}
				mu.Lock()
				computed++
				mu.Unlock()
				if !w.cellDone(pc, false, doneCells) {
					fail(errCrashInjected)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return computed, cached, firstErr
	}
	return computed, cached, ctx.Err()
}

// cellDone fires the progress hook and the crash-injection hook; a false
// return means the injected crash tripped (the conn is already severed).
func (w *workerRun) cellDone(pc *sweep.PlannedCell, cachedHit bool, doneCells *atomic.Int64) bool {
	doneCells.Add(1)
	if cb := w.opts.OnCell; cb != nil {
		cb(pc, cachedHit)
	}
	if w.opts.crashAfterCells > 0 && w.crashed.Add(1) == int64(w.opts.crashAfterCells) {
		// Die the way SIGKILL dies: no ShardDone, no goodbye — just a
		// severed connection. The coordinator must reassign the lease.
		w.conn.Close()
		return false
	}
	return true
}
