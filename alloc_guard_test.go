package browsermetric

import (
	"io"
	"runtime"
	"testing"
)

// TestStudyAllocCeiling is the top-level allocation regression guard for
// the zero-allocation hot-path work: a full Figure 3 study (every
// method × profile cell, 20 runs each) must stay under the ceiling. The
// seed study needed ~740k allocations for the same workload; the pooled
// event engine, sealed stats views and interned labels brought it under
// 150k, and the arena tier (worker-owned slab recycling plus persistent
// per-cell runner state) under 16k, and one reset testbed per worker
// plus O(1) connection bookkeeping under 7.7k. The ceiling keeps ~50%
// headroom for benign drift; the near-zero warm-path contract lives in
// TestWarmRunSteadyStateAllocs.
func TestStudyAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell study in -short mode")
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := RunStudy(StudyOptions{Runs: 20, BaseSeed: 1}); err != nil {
			t.Error(err)
		}
	})
	const ceiling = 11_500
	if allocs > ceiling {
		t.Fatalf("Fig3-style study allocated %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// TestStudyBytesCeiling guards the bytes the same study allocates, which
// is what drives the garbage collector: 8.4 MB while every cell built its
// own testbed, 1.2 MB with one testbed per worker reset between cells.
// The study runs on two workers whatever the machine, since each worker
// grows its own testbed and arena once; the ceiling keeps ~50% headroom.
func TestStudyBytesCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell study in -short mode")
	}
	study := func() {
		if _, err := RunStudy(StudyOptions{Runs: 20, BaseSeed: 1, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	study() // warm package-level state, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	study()
	runtime.ReadMemStats(&after)
	const ceiling = 1_800_000
	if b := after.TotalAlloc - before.TotalAlloc; b > ceiling {
		t.Fatalf("Fig3-style study allocated %d bytes, ceiling %d", b, ceiling)
	}
}

// BenchmarkStudyExport times one Figure-3 pass: a 50-run study on two
// workers plus its CSV export. Besides B/op and allocs/op it reports the
// GC cycles each pass triggers (gc/op).
func BenchmarkStudyExport(b *testing.B) {
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	for i := 0; i < b.N; i++ {
		st, err := RunStudy(StudyOptions{Runs: 50, BaseSeed: int64(i), Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.NumGC-gc0)/float64(b.N), "gc/op")
}

// TestCleanFaultProfileAllocCeiling is the zero-overhead-when-disabled
// guard for the fault-injection layer: selecting the Clean profile must
// not install an impairment (the link keeps its nil fast path), so the
// allocation count stays under the same ceiling as the pre-faults study.
func TestCleanFaultProfileAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell study in -short mode")
	}
	allocs := testing.AllocsPerRun(1, func() {
		opts := StudyOptions{Runs: 20, BaseSeed: 1}
		opts.Testbed.Faults = FaultClean
		if _, err := RunStudy(opts); err != nil {
			t.Error(err)
		}
	})
	const ceiling = 11_500
	if allocs > ceiling {
		t.Fatalf("Clean-profile study allocated %.0f objects, ceiling %d", allocs, ceiling)
	}
}
