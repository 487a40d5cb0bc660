package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/faults"
)

func TestMain(m *testing.M) {
	// Tests run from perfbench/; the committed artifact is one level up.
	artifactCSV = filepath.Join("..", artifactCSV)
	os.Exit(m.Run())
}

func testEnv(t *testing.T) *env {
	return &env{seed: 0, seconds: time.Millisecond, nproc: 2, tmp: t.TempDir(), out: t.TempDir(), log: io.Discard}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, tailMin)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tail(xs); err == nil {
		t.Fatalf("tail of %d samples succeeded; want a refusal", len(xs))
	}
	xs = append(xs, float64(len(xs)))
	tl, err := tail(xs)
	if err != nil || tl.Value != 0 {
		t.Fatalf("tail of 11 samples = %v, %v; want the minimum", tl, err)
	}
	xs = xs[:0]
	for i := 100; i > 0; i-- {
		xs = append(xs, float64(i))
	}
	tl, err = tail(xs)
	if err != nil {
		t.Fatal(err)
	}
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond != tailMin || tl.Percentile != 90 || tl.N != 100 {
		t.Fatalf("tail of 1..100 = %+v with %d beyond; want p90 with %d beyond", tl, beyond, tailMin)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := 0; i < 3; i++ {
		if got, want := baseSeed(7, i), int64(7+i); got != want {
			t.Fatalf("baseSeed(7, %d) = %d, want %d", i, got, want)
		}
	}
	if got := baseSeed(digestSeeds-1, 1); got != 0 {
		t.Fatalf("base seeds do not wrap into the recorded range: %d", got)
	}
	if got := baseSeed(-1, 0); got != digestSeeds-1 {
		t.Fatalf("negative seed maps to %d", got)
	}
	a := buildPopulation(2000, fleetRounds, 3)
	b := buildPopulation(2000, fleetRounds, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built different fleet populations")
	}
	if c := buildPopulation(2000, fleetRounds, 4); reflect.DeepEqual(a.samples, c.samples) {
		t.Fatal("different seeds built the same fleet samples")
	}
	if !reflect.DeepEqual(paperOptions(5, 2), paperOptions(5, 2)) {
		t.Fatal("study options differ for one base seed")
	}
}

func TestArtifactMatchesRecordedDigest(t *testing.T) {
	ps, err := setupPaper()
	if err != nil {
		t.Fatal(err)
	}
	if ps.artifactErr != nil {
		t.Fatal(ps.artifactErr)
	}
}

func TestDigestMismatchCountsAsFailed(t *testing.T) {
	saved := digestText
	defer func() { digestText = saved }()
	lines := strings.SplitN(saved, "\n", 2)
	digestText = "0 " + strings.Repeat("0", 64) + "\n" + lines[1]

	tl := newTally()
	if err := runPaperMatrix(testEnv(t), nil, metrics{}, tl); err != nil {
		t.Fatal(err)
	}
	// The committed artifact no longer matches the (tampered) base seed 0
	// digest either, so that reference check fails with the study's cells.
	cells := int64(plannedCells(paperOptions(0, 2)))
	if tl.failed != cells+1 || tl.wrong != cells+1 {
		t.Fatalf("failed=%d wrong=%d; want the %d cells of base seed 0 plus the artifact", tl.failed, tl.wrong, cells)
	}
	for reason := range tl.notes {
		if !strings.Contains(reason, "study base seed 0") && !strings.HasPrefix(reason, "reference: ") {
			t.Fatalf("unexpected failure %q", reason)
		}
	}
}

func TestProbeReturnsOnWedge(t *testing.T) {
	o := sweepOptions("", 0, 1, t.TempDir())
	o.Faults = faults.Profiles()
	ctx, cancel := context.WithTimeout(context.Background(), probeDeadline)
	defer cancel()
	start := time.Now()
	r := runProbe(ctx, o, 2)
	if el := time.Since(start); el >= probeDeadline {
		t.Fatalf("probe ran to its deadline (%v)", el)
	}
	if r.merged >= r.planned || r.workerErrs != 2 {
		t.Fatalf("probe at seed 0 = %+v; want the wedge (every worker failed, cells unmerged)", r)
	}

	// A pass that cannot finish before the deadline is abandoned too.
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	r = runProbe(ctx, sweepOptions(faults.Clean, 0, 1, t.TempDir()), 2)
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("probe ignored its deadline (%v)", el)
	}
	if r.merged >= r.planned {
		t.Fatalf("probe past its deadline = %+v; want unmerged cells", r)
	}
}

func TestFailureCountsDeterministic(t *testing.T) {
	count := func() (*tally, int) {
		tl := newTally()
		sc := &sweepCounts{failedProfiles: map[faults.Profile]int{}}
		done, _, err := coldPass(0, 2, t.TempDir(), sc, tl)
		if err != nil {
			t.Fatal(err)
		}
		return tl, len(done)
	}
	a, doneA := count()
	b, doneB := count()
	if a.failed != b.failed || a.attempted != b.attempted || !reflect.DeepEqual(a.notes, b.notes) || doneA != doneB {
		t.Fatalf("seed 0 counted %d/%d then %d/%d failed/attempted", a.failed, a.attempted, b.failed, b.attempted)
	}
	// At seed 0 the bursty profile aborts; the other three complete.
	if doneA != 3 || a.failed == 0 {
		t.Fatalf("seed 0: %d profiles completed, %d cells failed; want 3 and the burstywifi cells", doneA, a.failed)
	}
	for reason := range a.notes {
		if !strings.Contains(reason, string(faults.BurstyWiFi)) || !strings.Contains(reason, "timed out") {
			t.Fatalf("unexpected failure %q", reason)
		}
	}
}

func TestStripFaultColumn(t *testing.T) {
	in := "faults,method,run\nclean,XHR GET,0\nclean,XHR GET,1\n"
	got, err := stripFaultColumn([]byte(in), faults.Clean)
	if err != nil || string(got) != "method,run\nXHR GET,0\nXHR GET,1\n" {
		t.Fatalf("strip = %q, %v", got, err)
	}
	if _, err := stripFaultColumn([]byte("faults,x\nlossy1pct,1\n"), faults.Clean); err == nil {
		t.Fatal("a row of another profile was accepted")
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`Duration: 1s, Total samples = 100ms (10%)
      flat  flat%   sum%        cum   cum%
      60ms 60.00% 60.00%       60ms 60.00%  github.com/browsermetric/browsermetric/internal/eventsim.(*Simulator).step
      30ms 30.00% 90.00%       30ms 30.00%  runtime.mallocgc
      10ms 10.00%   100%       10ms 10.00%  github.com/browsermetric/browsermetric/internal/tcpsim.(*Conn).pump
`)
	flat, total := parsePprofTop(out)
	if total != 100*time.Millisecond || flat["eventsim"] != 60*time.Millisecond ||
		flat["tcpsim"] != 10*time.Millisecond || flat["other"] != 30*time.Millisecond {
		t.Fatalf("flat=%v total=%v", flat, total)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRec{
		{ID: 1, Layer: "pass", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: "core", Start: 1 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Layer: "core", Start: 4 * ms, End: 8 * ms}, // overlaps 2
	}
	self := selfTimes(spans)
	if self[1] != 3*ms || self[2] != 5*ms || self[3] != 4*ms {
		t.Fatalf("self times %v", self)
	}
	if u := unattributed(spans); u != 0.3 {
		t.Fatalf("unattributed = %v, want 0.3", u)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric lists the program
// prints in step with the benchmark definition at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v; the program has %d workloads", names, len(workloads))
	}
	check := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}
