package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// sweepExportBytes renders every deterministic byte surface of a sweep:
// the full per-sample CSV and the text report. The cached ≡ recomputed
// contract is asserted over these bytes.
func sweepExportBytes(t testing.TB, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(r.Report())
	return buf.Bytes()
}

// windowsProfiles returns the paper's five Windows browsers — the "5
// browsers" axis of the acceptance matrix.
func windowsProfiles(t testing.TB) []*browser.Profile {
	t.Helper()
	var out []*browser.Profile
	for _, n := range []browser.Name{browser.Chrome, browser.Firefox, browser.IE, browser.Opera, browser.Safari} {
		p := browser.Lookup(n, browser.Windows)
		if p == nil {
			t.Fatalf("no profile for %s on Windows", n)
		}
		out = append(out, p)
	}
	return out
}

// smallOpts is a 4 methods × 2 profiles × 2 faults (16-cell) matrix for
// the faster equivalence tests.
func smallOpts(dir string) Options {
	return Options{
		Methods: []methods.Kind{methods.XHRGet, methods.DOM, methods.WebSocket, methods.JavaTCP},
		Profiles: []*browser.Profile{
			browser.Lookup(browser.Chrome, browser.Windows),
			browser.Lookup(browser.Firefox, browser.Ubuntu),
		},
		Faults:   []faults.Profile{faults.Clean, faults.BurstyWiFi},
		Runs:     2,
		Gap:      time.Second,
		BaseSeed: 11,
		Dir:      dir,
	}
}

// TestSweepWarmReplayByteIdenticalAndFast is the PR's acceptance test: a
// 150-cell sweep (10 methods × 5 browsers × 3 fault profiles) replayed
// warm from the cache must be at least 10× faster than the cold run and
// export byte-identically to it.
func TestSweepWarmReplayByteIdenticalAndFast(t *testing.T) {
	opts := Options{
		// Methods defaults to the paper's ten compared methods.
		Profiles: windowsProfiles(t),
		Faults:   []faults.Profile{faults.Clean, faults.Lossy1pct, faults.BurstyWiFi},
		Runs:     10,
		Gap:      time.Second,
		BaseSeed: 42,
		Dir:      t.TempDir(),
	}

	cold, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Cells != 150 {
		t.Fatalf("matrix has %d cells, want 10 methods × 5 browsers × 3 faults = 150", cold.Stats.Cells)
	}
	if cold.Stats.CachedHits != 0 || cold.Stats.Computed == 0 {
		t.Fatalf("cold run stats %+v: want everything computed, nothing cached", cold.Stats)
	}
	if cold.Stats.Computed+cold.Stats.Skipped != cold.Stats.Cells {
		t.Fatalf("cold run stats %+v: computed+skipped != cells", cold.Stats)
	}
	coldBytes := sweepExportBytes(t, cold)

	warm, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Computed != 0 {
		t.Errorf("warm run recomputed %d cells, want 0", warm.Stats.Computed)
	}
	if warm.Stats.CachedHits != cold.Stats.Computed {
		t.Errorf("warm run replayed %d cells, want %d", warm.Stats.CachedHits, cold.Stats.Computed)
	}
	warmBytes := sweepExportBytes(t, warm)
	if !bytes.Equal(warmBytes, coldBytes) {
		t.Errorf("warm replay is not byte-identical to cold computation (%d vs %d bytes)",
			len(warmBytes), len(coldBytes))
	}
	ratio := float64(cold.Stats.Wall) / float64(warm.Stats.Wall)
	t.Logf("cold %v, warm %v (%.1f×)", cold.Stats.Wall, warm.Stats.Wall, ratio)
	if warm.Stats.Wall*10 > cold.Stats.Wall {
		t.Errorf("warm replay not ≥10× faster: cold %v, warm %v (%.1f×)",
			cold.Stats.Wall, warm.Stats.Wall, ratio)
	}
}

// TestSweepMatchesUncachedStudies: the sweep engine with its cache
// installed produces exactly the studies a plain uncached
// core.RunStudyContext produces — caching must be invisible in the data.
func TestSweepMatchesUncachedStudies(t *testing.T) {
	opts := smallOpts(t.TempDir())
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for si, fp := range res.Faults {
		so := core.StudyOptions{
			Methods:  opts.Methods,
			Profiles: opts.Profiles,
			Runs:     opts.Runs,
			Gap:      opts.Gap,
			BaseSeed: opts.BaseSeed,
		}
		so.Testbed.Faults = fp
		st, err := core.RunStudyContext(context.Background(), so)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := st.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := st.SummaryCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := res.Studies[si].WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := res.Studies[si].SummaryCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("fault profile %s: sweep study differs from uncached study", fp)
		}
	}
}

// TestSweepInterruptResumeEquivalence: a sweep cancelled mid-flight and
// then rerun against the same cache dir exports byte-identically to an
// uninterrupted sweep, at every worker count the repo's determinism
// contract covers.
func TestSweepInterruptResumeEquivalence(t *testing.T) {
	baseline, err := Run(context.Background(), smallOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want := sweepExportBytes(t, baseline)

	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts := smallOpts(t.TempDir())
		opts.Workers = w

		// Cancel after the third completed cell.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var done atomic.Int32
		opts.OnCell = func(fp faults.Profile, cs core.CellStatus) {
			if done.Add(1) == 3 {
				cancel()
			}
		}
		if _, err := Run(ctx, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers=%d: interrupted run returned %v, want context.Canceled", w, err)
		}

		// Rerun on the same cache: the finished cells replay, only the
		// missing ones run.
		opts.OnCell = nil
		res, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("Workers=%d: rerun: %v", w, err)
		}
		if res.Stats.CachedHits < 3 {
			t.Errorf("Workers=%d: rerun replayed %d cells from the cache, want ≥ 3", w, res.Stats.CachedHits)
		}
		if res.Stats.Computed+res.Stats.CachedHits+res.Stats.Skipped != res.Stats.Cells {
			t.Errorf("Workers=%d: stats don't add up: %+v", w, res.Stats)
		}
		if got := sweepExportBytes(t, res); !bytes.Equal(got, want) {
			t.Errorf("Workers=%d: rerun sweep is not byte-identical to an uninterrupted one", w)
		}
	}
}

// TestSweepWidenedMatrixReplaysOnlySharedCells: the cache, not the sweep
// configuration, decides what is warm. A {clean} sweep followed by a
// {clean, lossy1pct} sweep on the same dir replays exactly the clean
// cells, the widened sweep exports byte-identically to a cold one, and
// the dir holds nothing but the cells.
func TestSweepWidenedMatrixReplaysOnlySharedCells(t *testing.T) {
	dir := t.TempDir()
	narrow := smallOpts(dir)
	narrow.Faults = []faults.Profile{faults.Clean}
	first, err := Run(context.Background(), narrow)
	if err != nil {
		t.Fatal(err)
	}
	cleanCells := first.Stats.Cells - first.Stats.Skipped
	if first.Stats.Computed != cleanCells || cleanCells == 0 {
		t.Fatalf("narrow sweep stats %+v: want every clean cell computed", first.Stats)
	}

	wide := smallOpts(dir)
	wide.Faults = []faults.Profile{faults.Clean, faults.Lossy1pct}
	res, err := Run(context.Background(), wide)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CachedHits != cleanCells {
		t.Errorf("widened sweep replayed %d cells, want exactly the %d clean cells", res.Stats.CachedHits, cleanCells)
	}
	if res.Stats.Computed+res.Stats.CachedHits+res.Stats.Skipped != res.Stats.Cells {
		t.Errorf("stats don't add up: %+v", res.Stats)
	}

	cold := smallOpts(t.TempDir())
	cold.Faults = wide.Faults
	want, err := Run(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sweepExportBytes(t, res), sweepExportBytes(t, want)) {
		t.Errorf("widened sweep on a warm dir is not byte-identical to a cold sweep in a fresh dir")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != "cells" {
		t.Errorf("cache dir holds %v (err %v), want only cells/", ents, err)
	}
}

// TestSweepCorruptCellRecovery: flipping a byte in one cached cell file
// must be detected on the next run, logged, recomputed — and the final
// exports must still be byte-identical to the originals.
func TestSweepCorruptCellRecovery(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.Workers = 1 // serialize so the log capture needs no locking
	lg := &syncLog{}
	opts.Log = lg.logf

	cold, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := sweepExportBytes(t, cold)

	cellsDir := filepath.Join(opts.Dir, "cells")
	names, err := os.ReadDir(cellsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != cold.Stats.Computed {
		t.Fatalf("%d cell files on disk, want %d", len(names), cold.Stats.Computed)
	}
	victim := filepath.Join(cellsDir, names[0].Name())
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", warm.Stats.Corrupt)
	}
	if warm.Stats.Computed != 1 {
		t.Errorf("Computed = %d, want exactly the corrupted cell recomputed", warm.Stats.Computed)
	}
	if warm.Stats.CachedHits != cold.Stats.Computed-1 {
		t.Errorf("CachedHits = %d, want %d", warm.Stats.CachedHits, cold.Stats.Computed-1)
	}
	if !strings.Contains(lg.String(), "corrupt") {
		t.Errorf("corruption was not logged; log:\n%s", lg.String())
	}
	if got := sweepExportBytes(t, warm); !bytes.Equal(got, want) {
		t.Errorf("recovered sweep is not byte-identical to the original")
	}
}

// TestSweepIDSemantics: the sweep identity includes everything that can
// change the data and excludes the execution knobs that cannot.
func TestSweepIDSemantics(t *testing.T) {
	base := smallOpts("unused")
	if a, b := base, base; a.ID() != b.ID() {
		t.Fatal("identical options produced different IDs")
	}
	workers := base
	workers.Workers = 7
	if workers.ID() != base.ID() {
		t.Errorf("Workers changed the sweep ID; exports are worker-invariant, so it must not")
	}
	dir := base
	dir.Dir = "elsewhere"
	if dir.ID() != base.ID() {
		t.Errorf("Dir changed the sweep ID; the same sweep may live in any directory")
	}
	for name, mut := range map[string]func(*Options){
		"Runs":     func(o *Options) { o.Runs++ },
		"Gap":      func(o *Options) { o.Gap += time.Second },
		"BaseSeed": func(o *Options) { o.BaseSeed++ },
		"Timing":   func(o *Options) { o.Timing = browser.NanoTime },
		"Salt":     func(o *Options) { o.Salt = "other" },
		"Methods":  func(o *Options) { o.Methods = o.Methods[:3] },
		"Profiles": func(o *Options) { o.Profiles = o.Profiles[:1] },
		"Faults":   func(o *Options) { o.Faults = o.Faults[:1] },
		"Load":     func(o *Options) { o.Profiles = []*browser.Profile{o.Profiles[0].WithLoad(0.3)} },
	} {
		o := smallOpts("unused")
		mut(&o)
		if o.ID() == base.ID() {
			t.Errorf("mutating %s did not change the sweep ID", name)
		}
	}
}

func TestSweepRequiresDir(t *testing.T) {
	opts := smallOpts("")
	if _, err := Run(context.Background(), opts); err == nil {
		t.Fatal("Run without Dir succeeded, want error")
	}
}
