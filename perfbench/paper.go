package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// studyRuns is the runs-per-cell of every simulated cell the benchmark
// runs (the paper's 50).
const studyRuns = 50

// digestSeeds is how many base seeds have a recorded reference digest.
// Workloads walk base seeds consecutively from the workload seed and
// wrap inside this range, so every study they run has a reference.
const digestSeeds = 256

// digestText holds "base-seed sha256" lines: the SHA-256 of
// Study.WriteCSV for the clean Figure-3 matrix (10 methods × 8 profiles,
// Date.getTime, 50 runs per cell) at each base seed. Regenerate with
// `perfbench -record-digests 256 > digests.txt`; base seed 0 must equal
// the committed artifacts/study.csv.
//
//go:embed digests.txt
var digestText string

// artifactCSV is the committed seed-0 study export, relative to the
// repository root the benchmark runs from.
var artifactCSV = "artifacts/study.csv"

// parseDigests reads digestText into a slice indexed by base seed.
func parseDigests(text string) ([]string, error) {
	out := make([]string, digestSeeds)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		seed, err := strconv.Atoi(f[0])
		if err != nil || seed < 0 || seed >= digestSeeds || len(f[1]) != 64 {
			return nil, fmt.Errorf("digests: bad line %q", sc.Text())
		}
		out[seed] = f[1]
	}
	for s, d := range out {
		if d == "" {
			return nil, fmt.Errorf("digests: base seed %d missing", s)
		}
	}
	return out, nil
}

// baseSeed is the base seed of the i-th pass of a workload: consecutive
// from the workload seed, wrapped into the recorded range.
func baseSeed(seed int64, i int) int64 {
	b := (seed + int64(i)) % digestSeeds
	if b < 0 {
		b += digestSeeds
	}
	return b
}

// paperOptions is the Figure-3 matrix at one base seed.
func paperOptions(base int64, workers int) core.StudyOptions {
	return core.StudyOptions{Runs: studyRuns, BaseSeed: base, Workers: workers}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkDigest counts cells operations as succeeded when export hashes to
// want, and as failed (a wrong output, named by what) otherwise.
func checkDigest(t *tally, cells int, export []byte, want, what string) {
	if got := sha(export); got != want {
		t.wrongOutput(int64(cells), fmt.Sprintf("%s: csv sha256 %s, want %s", what, got[:12], want[:12]))
		return
	}
	t.ok(int64(cells))
}

// recordDigests prints the reference digest lines for base seeds 0..n-1.
func recordDigests(w io.Writer, n int) error {
	var buf bytes.Buffer
	for b := 0; b < n; b++ {
		st, err := core.RunStudy(paperOptions(int64(b), runtime.NumCPU()))
		if err != nil {
			return fmt.Errorf("base seed %d: %w", b, err)
		}
		buf.Reset()
		if err := st.WriteCSV(&buf); err != nil {
			return err
		}
		fmt.Fprintf(w, "%d %s\n", b, sha(buf.Bytes()))
	}
	return nil
}

// paperState is the paper-matrix set-up: the reference digests, checked
// against the committed artifact.
type paperState struct {
	digests     []string
	artifactErr error
}

func setupPaper() (*paperState, error) {
	d, err := parseDigests(digestText)
	if err != nil {
		return nil, err
	}
	st := &paperState{digests: d}
	raw, err := os.ReadFile(artifactCSV)
	switch {
	case err != nil:
		st.artifactErr = err
	case sha(raw) != d[0]:
		st.artifactErr = fmt.Errorf("%s sha256 %s, recorded base seed 0 %s", artifactCSV, sha(raw)[:12], d[0][:12])
	}
	return st, nil
}

// studyCells counts a study's executable (non-skipped) cells.
func studyCells(st *core.Study) (cells, samples int) {
	for i := range st.Cells {
		if c := &st.Cells[i]; !c.Skipped && c.Exp != nil {
			cells++
			samples += len(c.Exp.Samples)
		}
	}
	return cells, samples
}

// withDefaults fills the method and profile lists the way
// core.RunStudy does.
func withDefaults(o core.StudyOptions) core.StudyOptions {
	if len(o.Methods) == 0 {
		for _, s := range methods.Compared() {
			o.Methods = append(o.Methods, s.Kind)
		}
	}
	if len(o.Profiles) == 0 {
		o.Profiles = browser.Profiles()
	}
	return o
}

// plannedCells is the executable cell count of the Figure-3 matrix.
func plannedCells(opts core.StudyOptions) int {
	if len(opts.Methods) == 0 || len(opts.Profiles) == 0 {
		opts = withDefaults(opts)
	}
	n := 0
	for mi := range opts.Methods {
		for pi := range opts.Profiles {
			if _, ok := core.CellConfig(&opts, mi, pi); ok {
				n++
			}
		}
	}
	return n
}

// coreStats accumulates core-layer detail from the studies a workload
// ran: per-cell wall and the busy share of the worker pool.
type coreStats struct {
	cellMs         []float64
	busy, capacity time.Duration
}

func (c *coreStats) add(st *core.Study) {
	for i, w := range st.Stats.CellWall {
		if w > 0 && !st.Cells[i].Skipped {
			c.cellMs = append(c.cellMs, ms(w))
			c.busy += w
		}
	}
	c.capacity += st.Stats.Wall * time.Duration(st.Stats.Workers)
}

func (c *coreStats) report(m metrics) {
	if len(c.cellMs) == 0 {
		return
	}
	m.set("core.cell_ms_p50", median(c.cellMs), "ms")
	if tl, err := tail(c.cellMs); err == nil {
		m.set("core.cell_ms_tail", tl.Value, "ms")
	}
	if c.capacity > 0 {
		m.set("core.busy_ratio", float64(c.busy)/float64(c.capacity), "ratio")
	}
}

// runPaperMatrix is the closed loop of Figure-3 studies, one at a time.
func runPaperMatrix(e *env, tr *tracer, m metrics, t *tally) error {
	setupS, ps, err := timeSetup(setupReps, setupPaper)
	if err != nil {
		return err
	}
	m.set("setup_s", setupS, "s")
	if ps.artifactErr != nil {
		t.wrongOutput(1, "reference: "+ps.artifactErr.Error())
	} else {
		t.ok(1)
	}
	planned := int64(plannedCells(paperOptions(0, e.nproc)))

	var (
		passes  []time.Duration
		busy    time.Duration
		samples int
		cs      coreStats
		buf     bytes.Buffer
	)
	deadline := time.Now().Add(e.seconds)
	for i := 0; time.Now().Before(deadline) || i <= tailMin; i++ {
		base := baseSeed(e.seed, i)
		opts := paperOptions(base, e.nproc)
		pass := tr.begin("pass")
		start := time.Now()
		sp := pass.child("core")
		if tr != nil {
			opts.OnCellDone = func(c core.CellStatus) {
				now := time.Now()
				sp.record("cell", now.Add(-c.Wall), now)
			}
		}
		st, err := core.RunStudy(opts)
		sp.end()
		if err != nil {
			pass.end()
			t.fail(planned, fmt.Sprintf("study base seed %d: %v", base, err))
			continue
		}
		sp = pass.child("core.export")
		buf.Reset()
		err = st.WriteCSV(&buf)
		sp.end()
		wall := time.Since(start)
		pass.end()
		if err != nil {
			return err
		}
		passes = append(passes, wall)
		busy += wall
		e.rss.mark()
		cells, n := studyCells(st)
		samples += n
		cs.add(st)
		checkDigest(t, cells, buf.Bytes(), ps.digests[base], fmt.Sprintf("study base seed %d", base))
	}
	if err := passMetrics(e, m, "pass_ms", passes); err != nil {
		return err
	}
	m.set("samples_per_s", float64(samples)/busy.Seconds(), "samples/s")
	m.set("runs_per_s", float64(samples)/2/busy.Seconds(), "runs/s")
	fmt.Fprintf(e.log, "  %d studies, base seeds %d.., %d samples in %.3f s\n", len(passes), baseSeed(e.seed, 0), samples, busy.Seconds())
	cs.report(m)
	return nil
}
