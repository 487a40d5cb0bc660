package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// spec names one reported metric and its unit. The lists below are the
// benchmark's contract and must match BENCHMARK.json (a test checks).
type spec struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"samples_per_s", "samples/s"},
	{"pass_ms_p50", "ms"},
	{"pass_ms_tail", "ms"},
	{"peak_rss_mb", "MiB"},
}

// layers are the packages the per-layer metrics and CPU shares cover.
var layers = []string{
	"core", "methods", "eventsim", "netsim", "tcpsim", "httpsim", "wssim", "capture",
	"faults", "arena", "stats", "sweep", "shard", "fleet", "fleetwire", "obs",
}

// perLayer is what a traced run reports, on every workload. Figures a
// workload does not produce itself come from the ladder.
var perLayer = func() []spec {
	s := []spec{
		{"core.cell_ms_p50", "ms"}, {"core.cell_ms_tail", "ms"}, {"core.busy_ratio", "ratio"},
		{"methods.run_us.http", "us"}, {"methods.run_us.socket", "us"}, {"methods.run_us.websocket", "us"}, {"methods.timeouts", "count"},
		{"eventsim.events_per_run", "count"}, {"eventsim.ns_per_event", "ns"},
		{"netsim.frames_per_run", "count"}, {"netsim.codec_ns_per_frame", "ns"},
		{"tcpsim.segments_per_run", "count"}, {"tcpsim.retx_per_run", "count"}, {"tcpsim.ns_per_segment", "ns"},
		{"httpsim.parse_ns_per_msg", "ns"}, {"httpsim.marshal_ns_per_msg", "ns"},
		{"wssim.frame_ns", "ns"},
		{"capture.match_ns_per_record", "ns"},
		{"faults.judge_ns_per_frame", "ns"}, {"faults.drop_ratio", "ratio"},
		{"arena.slab_bytes", "bytes"}, {"arena.reset_skips", "count"},
		{"stats.ns_per_sample", "ns"},
		{"sweep.key_us", "us"}, {"sweep.store_us_p50", "us"}, {"sweep.store_us_tail", "us"},
		{"sweep.load_us_p50", "us"}, {"sweep.load_us_tail", "us"}, {"sweep.cell_bytes", "bytes"}, {"sweep.hit_ratio", "ratio"},
		{"shard.leases", "count"}, {"shard.renewals", "count"}, {"shard.reassigned", "count"},
		{"shard.tail_ms", "ms"}, {"shard.frame_ns", "ns"}, {"shard.worker_errors", "count"},
		{"fleet.observe_ns", "ns"}, {"fleet.fanin_ms", "ms"}, {"fleet.sink_us", "us"}, {"fleet.agg_apply_us", "us"}, {"fleet.keys", "count"},
		{"fleetwire.encode_us", "us"}, {"fleetwire.decode_us", "us"}, {"fleetwire.frame_bytes", "bytes"},
		{"obs.sketch_merge_us", "us"},
	}
	for _, l := range layers {
		s = append(s, spec{"cpu." + l, "ratio"})
	}
	s = append(s,
		spec{"cpu.other", "ratio"},
		spec{"trace.overhead_ratio", "ratio"}, spec{"trace.unattributed_ratio", "ratio"},
		// Workload detail measured in the traced half: the per-workload
		// figures behind the uniform end-to-end set.
		spec{"runs_per_s", "runs/s"}, spec{"warm_cells_per_s", "cells/s"},
		spec{"ingest_lag_ms_tail", "ms"}, spec{"fail_ratio", "ratio"},
	)
	return s
}()

// selectMetrics keeps exactly the metrics of list, in their catalogue
// units. A missing end-to-end metric is an error; a missing per-layer one
// reads 0 (the layer did not run).
func selectMetrics(m metrics, list []spec, required bool) (metrics, error) {
	out := metrics{}
	for _, s := range list {
		v, ok := m[s.name]
		if !ok {
			if required {
				return nil, fmt.Errorf("metric %s was not measured", s.name)
			}
			v = metric{Value: 0}
		}
		out.set(s.name, v.Value, s.unit)
	}
	return out, nil
}

// traceTolerance is the unattributed share of pass wall time the traced
// paper-matrix run accepts (the pass spans' own self time).
const traceTolerance = 0.05

// runTraced measures an untraced half, then a traced half under a CPU
// profile, then the ladder; the per-layer metrics come from the last two
// and the overhead from comparing the halves.
func runTraced(e *env, w *workload, tr *tracer, m metrics, t *tally) error {
	half := *e
	half.seconds = e.seconds / 2
	mu := metrics{}
	if err := w.run(&half, nil, mu, t); err != nil {
		return err
	}

	prof := filepath.Join(e.out, fmt.Sprintf("cpu-%s-seed%d.pprof", w.name, e.seed))
	f, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	err = w.run(&half, tr, m, t)
	pprof.StopCPUProfile()
	f.Close()
	if err != nil {
		return err
	}
	m.set("trace.overhead_ratio", m["pass_ms_p50"].Value/mu["pass_ms_p50"].Value-1, "ratio")

	spans := tr.snapshot()
	un := unattributed(spans)
	m.set("trace.unattributed_ratio", un, "ratio")
	verdict := "ok"
	if un > traceTolerance {
		verdict = "over tolerance"
	}
	fmt.Fprintf(e.log, "  trace: overhead %.4f (traced pass_ms_p50 %.3f vs untraced %.3f); unattributed %.4f of pass wall (tolerance %.2f): %s\n",
		m["trace.overhead_ratio"].Value, m["pass_ms_p50"].Value, mu["pass_ms_p50"].Value, un, traceTolerance, verdict)
	self := layerSelf(spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(e.log, "  self %-16s %10.3f ms\n", k, ms(self[k]))
	}
	if err := writeChrome(e.spanPath(w.name), spans); err != nil {
		return err
	}
	if err := ladder(e, m, t); err != nil {
		return err
	}
	m.set("methods.timeouts", float64(t.timeouts), "count")
	cpuShares(e, prof, m)
	return nil
}

// unattributed is the share of the pass spans' wall time that no child
// span covers: along the blocking path of a pass, the timed layer calls
// should account for all of it.
func unattributed(spans []spanRec) float64 {
	self := selfTimes(spans)
	var wall, rest time.Duration
	for _, s := range spans {
		if s.Parent == 0 && s.Layer == "pass" {
			wall += s.End - s.Start
			rest += self[s.ID]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(rest) / float64(wall)
}

// cpuShares attributes the traced half's CPU profile to layers by the
// package of each function's flat (self) samples, parsing
// `go tool pprof -top`.
func cpuShares(e *env, prof string, m metrics) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", prof).Output()
	if err != nil {
		fmt.Fprintf(e.log, "  cpu: go tool pprof failed: %v\n", err)
		return
	}
	flat, total := parsePprofTop(out)
	if total <= 0 {
		return
	}
	for _, l := range append(append([]string(nil), layers...), "other") {
		m.set("cpu."+l, float64(flat[l])/float64(total), "ratio")
	}
}

// parsePprofTop sums flat time per layer from `pprof -top` output.
func parsePprofTop(out []byte) (map[string]time.Duration, time.Duration) {
	const prefix = "github.com/browsermetric/browsermetric/internal/"
	flat := map[string]time.Duration{}
	var total time.Duration
	for _, line := range bytes.Split(out, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		layer := "other"
		if rest, ok := strings.CutPrefix(fn, prefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range layers {
				if l == pkg {
					layer = l
				}
			}
		}
		flat[layer] += d
		total += d
	}
	return flat, total
}
