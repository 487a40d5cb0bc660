package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/stats"
)

// Options configures a sweep: the methods × browser-profiles × fault-
// profiles matrix, executed as one manifest-driven, cache-backed run.
type Options struct {
	// Methods defaults to the paper's ten compared methods.
	Methods []methods.Kind
	// Profiles defaults to the Table 2 browser×OS matrix.
	Profiles []*browser.Profile
	// Faults defaults to every built-in fault profile.
	Faults []faults.Profile
	// Timing selects the timestamping API (default Date.getTime).
	Timing browser.TimingFunc
	// Runs per cell and Gap between runs (defaults 50 and 10 s).
	Runs int
	Gap  time.Duration
	// BaseSeed decorrelates cells; every fault profile reuses the same
	// per-cell seed schedule, so differences between profiles are
	// attributable to the impairment alone.
	BaseSeed int64
	// Workers caps per-study concurrency. Exports are byte-identical for
	// any value; the sweep identity deliberately excludes it.
	Workers int

	// Dir is the cache directory (required): cells/<hash>.cell entries
	// plus the manifest.
	Dir string
	// Resume continues a previous sweep of the same configuration from
	// its manifest instead of starting a fresh one. Cache entries are
	// revalidated (content hash + checksum) either way.
	Resume bool
	// Salt is the code-version salt baked into every cell key
	// (DefaultSalt when empty).
	Salt string
	// Log, when non-nil, receives progress and corruption notices.
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives the cache's hit/miss/corruption/
	// store counters as sweep_cache_* series. Excluded from the sweep
	// identity: observability never changes what is computed.
	Metrics *obs.Metrics
	// OnCell, when non-nil, fires per completed cell with the fault
	// profile it belongs to (see core.StudyOptions.OnCellDone caveats).
	OnCell func(fp faults.Profile, cs core.CellStatus)
}

func (o *Options) fillDefaults() {
	if len(o.Methods) == 0 {
		for _, s := range methods.Compared() {
			o.Methods = append(o.Methods, s.Kind)
		}
	}
	if len(o.Profiles) == 0 {
		o.Profiles = browser.Profiles()
	}
	if len(o.Faults) == 0 {
		o.Faults = faults.Profiles()
	}
	if o.Runs == 0 {
		o.Runs = 50
	}
	if o.Gap == 0 {
		o.Gap = 10 * time.Second
	}
	if o.Salt == "" {
		o.Salt = DefaultSalt
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
}

// ID returns the sweep's configuration identity: the SHA-256 of the
// canonical sweep description. Two sweeps share a manifest iff their IDs
// match. Workers is excluded (any worker count produces byte-identical
// exports); everything that can change a cell's samples or the matrix
// shape is included.
func (o Options) ID() string {
	o.fillDefaults()
	var b strings.Builder
	b.WriteString("browsermetric sweep v1\n")
	fmt.Fprintf(&b, "salt=%s\n", o.Salt)
	fmt.Fprintf(&b, "timing=%s\n", o.Timing)
	fmt.Fprintf(&b, "runs=%d\n", o.Runs)
	fmt.Fprintf(&b, "gap_ns=%d\n", int64(o.Gap))
	fmt.Fprintf(&b, "seed=%d\n", o.BaseSeed)
	for _, m := range o.Methods {
		fmt.Fprintf(&b, "method=%s\n", m)
	}
	for _, p := range o.Profiles {
		fmt.Fprintf(&b, "profile=%s load=%s\n", p.Label(), strconv.FormatFloat(p.Load(), 'x', -1, 64))
	}
	for _, fp := range o.Faults {
		fmt.Fprintf(&b, "faults=%s\n", fp)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Stats summarizes what a sweep did.
type Stats struct {
	// Cells is the matrix size; Skipped counts unsupported cells.
	Cells   int
	Skipped int
	// Computed cells ran the simulator; CachedHits replayed from disk.
	Computed   int
	CachedHits int
	// Resumed is how many cells the manifest already recorded when the
	// sweep started (0 on a fresh run).
	Resumed int
	// Corrupt counts cache entries that failed verification and were
	// recomputed.
	Corrupt int64
	// Wall is total host wall time.
	Wall time.Duration
}

// Result is a completed sweep: one study per fault profile, in Options
// order, plus the manifest and counters.
type Result struct {
	Options  Options
	Faults   []faults.Profile
	Studies  []*core.Study
	Manifest *Manifest
	Stats    Stats
}

// ManifestPath returns the manifest location inside a cache dir.
func ManifestPath(dir string) string { return filepath.Join(dir, "manifest.jsonl") }

// studyOptions builds the per-fault-profile study configuration exactly
// as Run executes it. Plan goes through the same construction, so a cell
// planned out-of-process is content-addressed identically to one the
// sweep scheduler runs. Callers fill Cache/OnCellDone themselves.
func (o *Options) studyOptions(fp faults.Profile) core.StudyOptions {
	so := core.StudyOptions{
		Methods:  o.Methods,
		Profiles: o.Profiles,
		Timing:   o.Timing,
		Runs:     o.Runs,
		Gap:      o.Gap,
		BaseSeed: o.BaseSeed,
		Workers:  o.Workers,
	}
	so.Testbed.Faults = fp
	return so
}

// Run executes the sweep: for each fault profile, the full methods ×
// profiles study runs under the deterministic scheduler with the
// content-addressed cache installed, and every completed cell is
// appended to the manifest. Cancelling ctx aborts between cells; a
// subsequent Run with Resume set finishes only the missing cells and
// exports byte-identically to an uninterrupted run.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts.fillDefaults()
	cache, err := OpenCache(opts.Dir, opts.Salt)
	if err != nil {
		return nil, err
	}
	cache.SetLog(opts.Log)
	cache.SetMetrics(opts.Metrics)

	sweepID := opts.ID()
	var m *Manifest
	if opts.Resume {
		m, err = ResumeManifest(ManifestPath(opts.Dir), sweepID)
	} else {
		m, err = CreateManifest(ManifestPath(opts.Dir), sweepID)
	}
	if err != nil {
		return nil, err
	}
	defer m.Close()

	res := &Result{Options: opts, Faults: opts.Faults, Manifest: m}
	res.Stats.Resumed = m.Len()
	if d := m.Dropped(); d > 0 {
		opts.Log("sweep: manifest: dropped %d torn/corrupt line(s); those cells will be recomputed or revalidated", d)
	}

	start := time.Now()
	for _, fp := range opts.Faults {
		so := opts.studyOptions(fp)
		so.Cache = &recordingCache{c: cache, m: m}
		if cb := opts.OnCell; cb != nil {
			prof := fp
			so.OnCellDone = func(cs core.CellStatus) { cb(prof, cs) }
		}
		st, err := core.RunStudyContext(ctx, so)
		if err != nil {
			return nil, fmt.Errorf("sweep: fault profile %s: %w", fp, err)
		}
		res.Studies = append(res.Studies, st)
		res.Stats.Cells += len(st.Cells)
		res.Stats.Skipped += st.Stats.CellsSkipped
		res.Stats.CachedHits += st.Stats.CellsCached
		res.Stats.Computed += st.Stats.CellsFinished - st.Stats.CellsSkipped - st.Stats.CellsCached
	}
	res.Stats.Wall = time.Since(start)
	res.Stats.Corrupt = cache.Stats().Corrupt
	if err := m.Close(); err != nil {
		return nil, fmt.Errorf("sweep: close manifest: %w", err)
	}
	return res, nil
}

// recordingCache wraps the disk cache so every completed (non-skipped)
// cell — computed or replayed — lands in the manifest exactly once.
type recordingCache struct {
	c *Cache
	m *Manifest
}

func (r *recordingCache) Load(cfg core.Config) (*core.Experiment, bool) {
	hash := r.c.Key(cfg).Hash()
	exp, ok := r.c.load(cfg, hash)
	if ok {
		// A revalidated warm cell still belongs in this sweep's manifest
		// (Append dedupes if it is already there from a resumed run).
		if err := r.record(cfg, hash, true); err != nil {
			// Failing the manifest write must not serve stale bookkeeping:
			// treat it as a miss so the cell goes through Store's error path.
			return nil, false
		}
	}
	return exp, ok
}

func (r *recordingCache) Store(cfg core.Config, exp *core.Experiment) error {
	hash := r.c.Key(cfg).Hash()
	if err := r.c.store(hash, exp); err != nil {
		return err
	}
	return r.record(cfg, hash, false)
}

// record appends cfg's entry under its key hash.
func (r *recordingCache) record(cfg core.Config, hash string, cached bool) error {
	e := ManifestEntry{
		Faults: cfg.Testbed.Faults.String(),
		Method: cfg.Method.String(),
		Key:    hash,
		Cached: cached,
	}
	if cfg.Profile != nil {
		e.Profile = cfg.Profile.Label()
	}
	return r.m.Append(e)
}

// WriteCSV exports every sample of every study with the fault profile in
// the leading column — the sweep-wide analogue of Study.WriteCSV, and
// the byte surface the cached ≡ recomputed equivalence tests compare.
func (r *Result) WriteCSV(w io.Writer) error {
	sw := core.NewSampleWriter(w, "faults")
	for si, st := range r.Studies {
		sw.SetLead(r.Faults[si].String())
		if err := sw.WriteStudy(st); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// Report renders the sweep as a text table: one row per method, the
// median (across browser profiles) of per-cell median Δd2 under each
// fault profile. Deterministic: same options ⇒ byte-identical output.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep — median Δd2 (ms) across %d browser profiles, %d runs/cell, seed %d\n\n",
		len(r.Options.Profiles), r.Options.Runs, r.Options.BaseSeed)
	fmt.Fprintf(&b, "%-22s", "method")
	for _, fp := range r.Faults {
		fmt.Fprintf(&b, " %12s", fp)
	}
	b.WriteString("\n")
	for _, k := range r.Options.Methods {
		fmt.Fprintf(&b, "%-22s", methods.Get(k).Name)
		for si := range r.Studies {
			var meds []float64
			for _, c := range r.Studies[si].MethodCells(k) {
				meds = append(meds, c.Exp.MedianOverhead(2))
			}
			if len(meds) == 0 {
				fmt.Fprintf(&b, " %12s", "-")
				continue
			}
			fmt.Fprintf(&b, " %12.2f", stats.Median(meds))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// StatsLine summarizes the run's bookkeeping for humans. Unlike Report it
// depends on how the sweep executed (cold vs warm vs resumed), so it is
// deliberately not part of the byte-identical export surface.
func (r *Result) StatsLine() string {
	return fmt.Sprintf("%d cells: %d computed, %d cached, %d skipped (%d resumed from manifest, %d corrupt entries recomputed)",
		r.Stats.Cells, r.Stats.Computed, r.Stats.CachedHits, r.Stats.Skipped, r.Stats.Resumed, r.Stats.Corrupt)
}
