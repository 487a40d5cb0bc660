package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/shard"
	"github.com/browsermetric/browsermetric/internal/sweep"
)

// passTimeout bounds one cluster pass; a pass that has not merged by
// then counts its cells as failed.
const passTimeout = 60 * time.Second

// probeDeadline bounds the once-per-run poison-cell probe.
const probeDeadline = 30 * time.Second

// clusterPass is the outcome of one coordinator + workers pass.
type clusterPass struct {
	res      *sweep.Result
	err      error
	tailWall time.Duration // last worker cell -> Wait returned
	stats    shard.Stats
	planned  int
	workers  *sync.WaitGroup
	mu       sync.Mutex
	werrs    []error // one per worker, filled as they return
}

// workerErrs returns the errors of the workers that failed other than by
// the benchmark's own cancellation. Call after p.workers.Wait().
func (p *clusterPass) workerErrs() (errs []error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, err := range p.werrs {
		if err != nil && !errors.Is(err, context.Canceled) {
			errs = append(errs, err)
		}
	}
	return errs
}

// runCluster starts a coordinator and n workers (Workers: 1 each) over
// loopback and waits for the merged result. It returns as soon as Wait
// does; the workers may still be winding down, so the caller waits on
// p.workers. With probe set, Wait is also abandoned once every worker has
// returned an error (nothing is left to finish the shards).
func runCluster(ctx context.Context, o sweep.Options, n int, probe bool) *clusterPass {
	p := &clusterPass{workers: &sync.WaitGroup{}}
	c, err := shard.NewCoordinator(shard.CoordinatorOptions{Sweep: o})
	if err != nil {
		p.err = err
		return p
	}
	p.planned = c.Stats().Cells
	var (
		mu       sync.Mutex
		lastCell time.Time
	)
	wctx, cancel := context.WithCancel(ctx)
	for k := 0; k < n; k++ {
		p.workers.Add(1)
		go func(k int) {
			defer p.workers.Done()
			_, err := shard.RunWorker(wctx, shard.WorkerOptions{
				Addr: c.Addr(), Name: fmt.Sprintf("w%d", k), Sweep: o, Workers: 1,
				OnCell: func(*sweep.PlannedCell, bool) {
					mu.Lock()
					lastCell = time.Now()
					mu.Unlock()
				},
			})
			p.mu.Lock()
			p.werrs = append(p.werrs, err)
			p.mu.Unlock()
		}(k)
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, passTimeout)
	if probe {
		go func() {
			p.workers.Wait()
			if len(p.workerErrs()) == n {
				waitCancel()
			}
		}()
	}
	p.res, p.err = c.Wait(waitCtx)
	waitCancel()
	p.stats = c.Stats()
	c.Close()
	mu.Lock()
	if !lastCell.IsZero() {
		p.tailWall = time.Since(lastCell)
	}
	mu.Unlock()
	if p.err != nil {
		cancel()
	} else {
		// Workers finish on their own (a worker sleeping through the
		// NoWork retry still gets its AllDone); cancel only once they have.
		go func() { p.workers.Wait(); cancel() }()
	}
	return p
}

// stripFaultColumn turns a single-profile sweep export into the study
// export of the same cells: the sweep CSV is the study CSV with the fault
// profile as a leading column.
func stripFaultColumn(csv []byte, fp faults.Profile) ([]byte, error) {
	lines := bytes.SplitAfter(csv, []byte("\n"))
	var out bytes.Buffer
	for i, l := range lines {
		if len(l) == 0 {
			continue
		}
		prefix := fp.String() + ","
		if i == 0 {
			prefix = "faults,"
		}
		rest, ok := bytes.CutPrefix(l, []byte(prefix))
		if !ok {
			return nil, fmt.Errorf("line %d lacks %q", i+1, prefix)
		}
		out.Write(rest)
	}
	return out.Bytes(), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// poisonProbe runs one shard-cluster pass over the fault path's
// configuration (all four fault profiles) at the workload's first base
// seed. A cell that fails kills every worker that leases its shard and
// the coordinator then waits for ever; the probe stops when every worker
// has returned an error, or at probeDeadline, and counts the cells that
// never merged as failed.
func poisonProbe(e *env, t *tally) error {
	dir, err := e.scratchDir("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := sweepOptions("", baseSeed(e.seed, 0), 1, dir)
	o.Faults = faults.Profiles()
	ctx, cancel := context.WithTimeout(context.Background(), probeDeadline)
	defer cancel()
	start := time.Now()
	p := runProbe(ctx, o, e.nproc)
	fmt.Fprintf(e.log, "  probe: %d planned cells, %d worker errors, stopped after %.2f s: %s\n",
		p.planned, p.workerErrs, time.Since(start).Seconds(), p.outcome)
	if p.merged < p.planned {
		t.fail(int64(p.planned-p.merged), "cluster probe (all fault profiles): cells never merged")
	}
	t.ok(int64(p.merged))
	return nil
}

// probeResult summarises a probe pass.
type probeResult struct {
	planned, merged, workerErrs int
	outcome                     string
}

// runProbe runs the probe pass and waits for its workers.
func runProbe(ctx context.Context, o sweep.Options, n int) probeResult {
	p := runCluster(ctx, o, n, true)
	r := probeResult{planned: p.planned}
	p.workers.Wait()
	r.workerErrs = len(p.workerErrs())
	switch {
	case p.err == nil:
		r.outcome = "merged"
		for _, st := range p.res.Studies {
			c, _ := studyCells(st)
			r.merged += c
		}
	case r.workerErrs == n:
		r.outcome = "every worker failed: " + firstLine(p.err.Error())
	default:
		r.outcome = "deadline: " + firstLine(p.err.Error())
	}
	return r
}

// shardLadder runs one shard-cluster pass over the ladder study's cells:
// a coordinator plus nproc loopback workers (Workers: 1 each) with a
// fresh cache. It reports the lease counters and the tail from the last
// worker cell to the merged result, and checks that the merged export is
// the study's own export with the fault column added.
func shardLadder(e *env, st *core.Study, fp faults.Profile, m metrics, t *tally) error {
	dir, err := e.scratchDir("ladder-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := sweepOptions(fp, st.Options.BaseSeed, 1, dir)
	p := runCluster(context.Background(), o, e.nproc, false)
	p.workers.Wait()
	werrs := p.workerErrs()
	for _, err := range werrs {
		t.fail(1, "ladder cluster worker: "+firstLine(err.Error()))
	}
	t.ok(int64(e.nproc - len(werrs)))
	m.set("shard.worker_errors", float64(len(werrs)), "count")
	if p.err != nil {
		t.fail(int64(p.planned), fmt.Sprintf("ladder cluster %s: %v", fp, p.err))
		return nil
	}
	m.set("shard.leases", float64(p.stats.LeasesGranted), "count")
	m.set("shard.renewals", float64(p.stats.Renewals), "count")
	m.set("shard.reassigned", float64(p.stats.Reassigned), "count")
	m.set("shard.tail_ms", ms(p.tailWall), "ms")

	var merged, solo bytes.Buffer
	if err := p.res.WriteCSV(&merged); err != nil {
		return err
	}
	if err := st.WriteCSV(&solo); err != nil {
		return err
	}
	cells, _ := studyCells(st)
	got, err := stripFaultColumn(merged.Bytes(), fp)
	if err != nil || !bytes.Equal(got, solo.Bytes()) {
		t.wrongOutput(int64(cells), fmt.Sprintf("ladder cluster %s: merged csv differs from the solo export", fp))
	} else {
		t.ok(int64(cells))
	}
	return nil
}
