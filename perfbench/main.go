// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one of two workloads through the public functions
// of internal/core and fleet for a fixed number
// of host seconds, checks every output byte-for-byte, and prints one JSON
// result line:
//
//	perfbench --workload paper-matrix --seed 0 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics (measured with
// no instrumentation). With --trace 1 the run is split: an untraced half,
// a traced half that records spans around every call into a layer, and a
// ladder that times each layer (sweep and shard included) from outside on
// inputs taken from the workload; the result then holds the per-layer
// metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and names every failure.
type tally struct {
	attempted, failed int64
	wrong             int64 // failures that are wrong outputs (not known defects)
	timeouts          int64 // failures that were virtual-time method timeouts
	notes             map[string]int64
}

func newTally() *tally { return &tally{notes: map[string]int64{}} }

// ok records n attempted operations that succeeded.
func (t *tally) ok(n int64) { t.attempted += n }

// fail records n attempted operations that failed for the named reason.
func (t *tally) fail(n int64, reason string) {
	t.attempted += n
	t.failed += n
	t.notes[reason] += n
	if strings.Contains(reason, "timed out") {
		t.timeouts++
	}
}

// wrongOutput records n operations whose output failed a byte check.
func (t *tally) wrongOutput(n int64, reason string) {
	t.fail(n, reason)
	t.wrong += n
}

func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// maxReasons caps how many distinct failure reasons report prints.
const maxReasons = 20

// report prints the failure reasons in a stable order.
func (t *tally) report(w io.Writer) {
	reasons := make([]string, 0, len(t.notes))
	for r := range t.notes {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for i, r := range reasons {
		if i == maxReasons {
			fmt.Fprintf(w, "  ... and %d more failure reasons\n", len(reasons)-i)
			break
		}
		fmt.Fprintf(w, "  failed %6d  %s\n", t.notes[r], r)
	}
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	nproc   int
	tmp     string // scratch directory for cache dirs, removed at exit
	out     string // directory for spans and profiles
	log     io.Writer
	rss     *rssWatch // nil records nothing
}

// workload is one benchmark job.
type workload struct {
	name string
	// run measures for e.seconds and reports into m (end-to-end metrics,
	// plus per-layer detail when tr is non-nil) and t.
	run func(e *env, tr *tracer, m metrics, t *tally) error
}

// metrics collects named values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

var workloads = []workload{
	{name: "paper-matrix", run: runPaperMatrix},
	{name: "fleet-ingest", run: runFleetIngest},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-matrix, fleet-ingest")
		seed    = flag.Int64("seed", 0, "workload seed (inputs are a pure function of it)")
		seconds = flag.Float64("seconds", 10, "host seconds to measure")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		record  = flag.Int("record-digests", 0, "print the reference study digests for base seeds 0..n-1 and exit")
	)
	flag.Parse()
	if *record > 0 {
		if err := recordDigests(os.Stdout, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir holds spans, profiles and scratch caches, relative to the
// repository root the benchmark runs from (run.sh builds there too).
const outDir = ".bench_build"

func run(name string, seed int64, seconds float64, trace int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Flush what came before (the build, an earlier run's deletions) so
	// its writeback does not land in the measured window, and flush this
	// run's scratch deletions before exit for the same reason.
	syscall.Sync()
	tmp, err := os.MkdirTemp(outDir, "run-"+name+"-")
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(tmp)
		syscall.Sync()
	}()

	e := &env{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		nproc:   runtime.NumCPU(),
		tmp:     tmp,
		out:     outDir,
		log:     os.Stdout,
		rss:     &rssWatch{},
	}
	fmt.Fprintf(e.log, "perfbench %s seed=%d seconds=%g trace=%d nproc=%d\n", name, seed, seconds, trace, e.nproc)

	m := metrics{}
	t := newTally()
	list, required := endToEnd, true
	if trace == 1 {
		list, required = perLayer, false
		err = runTraced(e, w, newTracer(), m, t)
	} else {
		err = w.run(e, nil, m, t)
		m.set("peak_rss_mb", e.rss.median(), "MiB")
	}
	if err != nil {
		return err
	}
	m.set("fail_ratio", t.ratio(), "ratio")
	detail := m
	if m, err = selectMetrics(detail, list, required); err != nil {
		return err
	}
	t.report(e.log)
	res := result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	names := make([]string, 0, len(detail))
	for k := range detail {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(e.log, "  %-32s %16.6g %s\n", k, detail[k].Value, detail[k].Unit)
	}
	fmt.Fprintf(e.log, "  attempted=%d failed=%d (fail_ratio %.6f) correct=%v\n", t.attempted, t.failed, t.ratio(), res.Correct)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// timeSetup runs build reps times and returns the median wall time in
// seconds together with the last build's state.
func timeSetup[S any](reps int, build func() (S, error)) (float64, S, error) {
	var (
		walls []float64
		last  S
	)
	for i := 0; i < reps; i++ {
		start := time.Now()
		s, err := build()
		walls = append(walls, time.Since(start).Seconds())
		if err != nil {
			return 0, last, err
		}
		last = s
	}
	// Start the measured loop from a collected heap and a fresh RSS
	// high-water mark, so set-up garbage shows in neither.
	runtime.GC()
	resetPeakRSS()
	return median(walls), last, nil
}

// resetPeakRSS resets the kernel's VmHWM counter for this process
// (clear_refs value 5); peakRSSMiB then reports the peak since.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssWatch records the peak resident set of each pass. A single
// process-wide peak depends on where a GC cycle happened to land; the
// median of the per-pass peaks does not.
type rssWatch struct {
	mu    sync.Mutex
	peaks []float64
}

// mark closes a pass: it records the peak since the previous mark and
// resets the high-water mark.
func (r *rssWatch) mark() {
	if r == nil {
		return
	}
	v := peakRSSMiB()
	resetPeakRSS()
	r.mu.Lock()
	r.peaks = append(r.peaks, v)
	r.mu.Unlock()
}

func (r *rssWatch) median() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.peaks)
}

// setupReps is how many times each workload builds its set-up state; the
// median is reported as setup_s.
const setupReps = 11

// scratchDir makes a fresh directory under the run's scratch dir.
func (e *env) scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// spanPath names the span file of a traced run.
func (e *env) spanPath(workload string) string {
	return filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.json", workload, e.seed))
}
