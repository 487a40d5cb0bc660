package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// CellSeed derives the testbed seed of the (methodIndex, profileIndex)
// cell. It is a pure function of the matrix position so the execution
// schedule — sequential, parallel, or anything in between — cannot
// influence a cell's random stream, which is what makes parallel and
// sequential studies byte-identical.
func CellSeed(base int64, methodIndex, profileIndex int) int64 {
	return base + int64(methodIndex)*97 + int64(profileIndex)*13 + 1
}

// runExperiment indirects the per-cell experiment execution; tests swap it
// to inject failures and stalls without building a broken testbed.
var runExperiment = RunOn

// RunStudy executes the matrix. Unsupported combinations are marked
// Skipped; any other failure aborts the study and is returned.
func RunStudy(opts StudyOptions) (*Study, error) {
	return RunStudyContext(context.Background(), opts)
}

// RunStudyContext executes the matrix on a pool of opts.Workers
// goroutines. Each worker owns one testbed and resets it for every cell
// (Reset makes it exactly the testbed New would build), with a seed
// derived from the cell's matrix position via CellSeed, so no simulation
// state is shared between cells or workers and results are independent
// of scheduling order; Cells keeps the stable method-major ordering
// regardless of completion order.
//
// Canceling ctx aborts the study and returns ctx.Err(). The first cell
// failure cancels the remaining work and is returned after in-flight
// cells drain ("first" = lowest cell index among the failures observed,
// so the returned error is deterministic too).
func RunStudyContext(ctx context.Context, opts StudyOptions) (*Study, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts.Methods) == 0 {
		for _, s := range methods.Compared() {
			opts.Methods = append(opts.Methods, s.Kind)
		}
	}
	if len(opts.Profiles) == 0 {
		opts.Profiles = browser.Profiles()
	}

	total := len(opts.Methods) * len(opts.Profiles)
	st := &Study{Options: opts}
	st.Cells = make([]Cell, total)
	st.Stats.CellWall = make([]time.Duration, total)
	// Prefill every cell's identity so an aborted study still has
	// well-formed (if experiment-less) rows.
	for i := range st.Cells {
		st.Cells[i] = Cell{
			Spec:    methods.Get(opts.Methods[i/len(opts.Profiles)]),
			Profile: opts.Profiles[i%len(opts.Profiles)],
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	st.Stats.Workers = workers
	if total == 0 {
		return st, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int, total)
	for i := 0; i < total; i++ {
		jobs <- i
	}
	close(jobs)

	var (
		mu          sync.Mutex // guards st.Stats, firstErr*, and callback order
		firstErr    error
		firstErrIdx = total
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena and one testbed per worker: every cell runs on the
			// testbed after a Reset and draws its hot-path buffers from the
			// arena, so both recycle their storage cell after cell. Both
			// are single-goroutine by design, which is exactly the
			// worker's execution model. The testbed is built on first use.
			a := arena.New(0)
			tb := new(testbed.Testbed)
			for idx := range jobs {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				st.Stats.CellsStarted++
				mu.Unlock()

				mi, pi := idx/len(opts.Profiles), idx%len(opts.Profiles)
				cellStart := time.Now()
				cell, err := runCell(ctx, &opts, mi, pi, a, tb)
				wall := time.Since(cellStart)

				canceled := err != nil && errors.Is(err, context.Canceled) ||
					err != nil && errors.Is(err, context.DeadlineExceeded)
				if canceled {
					// The cell was cut short by cancellation (ours after a
					// failure elsewhere, or the caller's): not a result, not
					// a failure of this cell.
					return
				}

				mu.Lock()
				st.Cells[idx] = cell
				st.Stats.CellWall[idx] = wall
				st.Stats.CellsFinished++
				if cell.Skipped {
					st.Stats.CellsSkipped++
				}
				if cell.Cached {
					st.Stats.CellsCached++
				}
				if err != nil {
					st.Stats.CellsFailed++
					if idx < firstErrIdx {
						firstErr, firstErrIdx = err, idx
					}
				}
				if cb := opts.OnCellDone; cb != nil {
					cb(CellStatus{
						Index:   idx,
						Method:  opts.Methods[mi],
						Profile: opts.Profiles[pi],
						Skipped: cell.Skipped,
						Cached:  cell.Cached,
						Err:     err,
						Wall:    wall,
						Done:    st.Stats.CellsFinished,
						Total:   total,
					})
				}
				mu.Unlock()

				if err != nil {
					cancel() // first-error abort: stop scheduling new cells
				}
			}
		}()
	}
	wg.Wait()
	st.Stats.Wall = time.Since(start)
	mergeStudyMetrics(st, opts.Metrics)

	if firstErr != nil {
		return nil, firstErr
	}
	// cancel() is only invoked above when firstErr was recorded, so a
	// non-nil ctx.Err() here is the caller's cancellation or deadline.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// mergeStudyMetrics folds the per-cell registries into the study-level
// registry in matrix order (so the merged floats don't depend on cell
// completion order) and adds the scheduler's own counters. Wall times
// are host time and therefore the one part of a metrics snapshot that
// varies between identical runs.
func mergeStudyMetrics(st *Study, m *obs.Metrics) {
	if m == nil {
		return
	}
	for i := range st.Cells {
		m.Merge(st.Cells[i].Metrics)
		if w := st.Stats.CellWall[i]; w > 0 {
			m.ObserveDur("study_cell_wall_ms", w)
		}
	}
	m.Add("study_cells_started", int64(st.Stats.CellsStarted))
	m.Add("study_cells_finished", int64(st.Stats.CellsFinished))
	m.Add("study_cells_skipped", int64(st.Stats.CellsSkipped))
	m.Add("study_cells_failed", int64(st.Stats.CellsFailed))
	m.Add("study_cells_cached", int64(st.Stats.CellsCached))
	m.Set("study_workers", float64(st.Stats.Workers))
	m.Set("study_wall_ms", float64(st.Stats.Wall)/float64(time.Millisecond))
}

// CellConfig builds the exact configuration cell (mi, pi) of a study
// runs under: the method/profile identity plus every knob that can
// influence the measurement, with the testbed seed derived from the
// matrix position via CellSeed. ok is false when the profile cannot run
// the method (the cell is skipped). It is the single construction site
// for cell configs — the scheduler's runCell and any out-of-process
// executor (the shard runner) both go through it, so a cell is
// content-addressed identically no matter which process computes it.
// opts.Methods and opts.Profiles must already be populated.
func CellConfig(opts *StudyOptions, mi, pi int) (Config, bool) {
	kind := opts.Methods[mi]
	spec := methods.Get(kind)
	prof := opts.Profiles[pi]
	if !prof.Supports(spec.API) {
		return Config{}, false
	}
	cfg := Config{
		Method:  kind,
		Profile: prof,
		Timing:  opts.Timing,
		Runs:    opts.Runs,
		Gap:     opts.Gap,
		Testbed: opts.Testbed,
	}
	cfg.Testbed.Seed = CellSeed(opts.BaseSeed, mi, pi)
	return cfg, true
}

// runCell executes one (method, profile) cell on the calling worker's
// testbed tb, reset for the cell. a is the worker's arena; it backs the
// cell's hot-path buffers and recycles between cells.
func runCell(ctx context.Context, opts *StudyOptions, mi, pi int, a *arena.Arena, tb *testbed.Testbed) (Cell, error) {
	spec := methods.Get(opts.Methods[mi])
	prof := opts.Profiles[pi]
	cell := Cell{Spec: spec, Profile: prof}
	cfg, ok := CellConfig(opts, mi, pi)
	if !ok {
		cell.Skipped = true
		return cell, nil
	}
	// The cache is consulted before the tracer/registry are attached:
	// a hit replays the experiment without observability (the key does
	// not — and must not — depend on Tracer/Metrics, which cannot change
	// any simulated outcome).
	if opts.Cache != nil {
		if exp, ok := opts.Cache.Load(cfg); ok {
			cell.Exp = exp
			cell.Cached = true
			return cell, nil
		}
	}
	cfg.Testbed.Arena = a
	// Each cell gets its own tracer/registry (a Tracer is single-
	// goroutine); the scheduler merges registries in matrix order after
	// the workers drain.
	if opts.Tracing {
		cfg.Tracer = obs.NewTracer()
		cell.Trace = cfg.Tracer
	}
	if opts.Metrics != nil {
		cfg.Metrics = obs.NewMetrics()
		cell.Metrics = cfg.Metrics
	}
	exp, err := runExperiment(ctx, tb, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return cell, err
		}
		return cell, fmt.Errorf("core: cell %s / %s: %w", spec.Name, prof.Label(), err)
	}
	cell.Exp = exp
	if opts.Cache != nil {
		// Persist with the observability fields stripped so the stored
		// entry is keyed and reconstructed from the measurement-relevant
		// config alone.
		stored := cfg
		stored.Tracer, stored.Metrics = nil, nil
		stored.Testbed.Arena = nil
		if serr := opts.Cache.Store(stored, exp); serr != nil {
			return cell, fmt.Errorf("core: cell %s / %s: cache store: %w", spec.Name, prof.Label(), serr)
		}
	}
	return cell, nil
}
