package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/fleetwire"
	"github.com/browsermetric/browsermetric/internal/httpsim"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/shard"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/sweep"
	"github.com/browsermetric/browsermetric/internal/testbed"
	"github.com/browsermetric/browsermetric/internal/wssim"
)

// microMin is the least wall time a ladder micro-measurement loops for.
const microMin = 20 * time.Millisecond

// ladderLoss is the fault profile the ladder judges captured frames with
// and replays a cell under for retransmissions: the workloads run the
// clean path, on which the faults layer does nothing.
const ladderLoss = faults.Lossy1pct

// setIfAbsent keeps a value the workload itself measured.
func (m metrics) setIfAbsent(name string, v float64, unit string) {
	if _, ok := m[name]; !ok {
		m.set(name, v, unit)
	}
}

// perOp times fn in a loop for at least microMin and returns the mean
// wall time of one call.
func perOp(fn func()) time.Duration {
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if el := time.Since(start); el >= microMin {
			return el / time.Duration(n)
		}
	}
}

// ladder times every layer from outside on inputs taken from the
// workload and sets the per-layer metrics the workload did not already
// measure itself.
func ladder(e *env, m metrics, t *tally) error {
	base := baseSeed(e.seed, 0)
	fp := faults.Clean
	opts := withDefaults(paperOptions(base, e.nproc))

	// core + stats: one study of the workload's cells.
	st, err := core.RunStudy(opts)
	if err != nil {
		t.fail(int64(plannedCells(opts)), fmt.Sprintf("ladder study %s base seed %d: %v", fp, base, err))
	} else {
		var cs coreStats
		cs.add(st)
		if _, ok := m["core.cell_ms_p50"]; !ok {
			cs.report(m)
		}
		_, samples := studyCells(st)
		m.setIfAbsent("runs_per_s", float64(samples)/2/st.Stats.Wall.Seconds(), "runs/s")
		statsLayer(st, m)
		if err := sweepLayer(e, st, m, t); err != nil {
			return err
		}
		if err := shardLadder(e, st, fp, m, t); err != nil {
			return err
		}
	}

	// The simulator ladder: one cell per transport family, replayed.
	if err := simLadder(&opts, m, t); err != nil {
		return err
	}
	shardLayer(m)
	fleetLadder(e, m, t)
	return faultLadder(e, base, m, t)
}

// statsLayer times NewSamples + Box + CDF over every cell's overheads.
func statsLayer(st *core.Study, m metrics) {
	var samples int
	var total time.Duration
	for i := range st.Cells {
		c := &st.Cells[i]
		if c.Skipped || c.Exp == nil {
			continue
		}
		for round := 1; round <= methods.Rounds; round++ {
			xs := c.Exp.Overheads(round)
			d := perOp(func() {
				s := stats.NewSamples(xs)
				_ = s.Box()
				_ = s.CDF()
			})
			total += d
			samples += len(xs)
		}
	}
	if samples > 0 {
		m.set("stats.ns_per_sample", float64(total)/float64(samples), "ns")
	}
}

// sweepLayer stores and loads every cell of st through a fresh cache.
func sweepLayer(e *env, st *core.Study, m metrics, t *tally) error {
	dir, err := e.scratchDir("ladder-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := sweep.OpenCache(dir, "")
	if err != nil {
		return err
	}
	opts := st.Options
	var keys, stores, loads []float64
	for i := range st.Cells {
		cell := &st.Cells[i]
		if cell.Skipped || cell.Exp == nil {
			continue
		}
		mi, pi := i/len(opts.Profiles), i%len(opts.Profiles)
		cfg, ok := core.CellConfig(&opts, mi, pi)
		if !ok {
			continue
		}
		keys = append(keys, us(perOp(func() { _ = c.Key(cfg).Hash() })))
		start := time.Now()
		if err := c.Store(cfg, cell.Exp); err != nil {
			return err
		}
		stores = append(stores, us(time.Since(start)))
		start = time.Now()
		got, ok := c.Load(cfg)
		loads = append(loads, us(time.Since(start)))
		if !ok || !reflect.DeepEqual(got.Samples, cell.Exp.Samples) {
			t.wrongOutput(1, "ladder: sweep cache load differs from the stored cell")
		} else {
			t.ok(1)
		}
	}
	var size int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			size += fi.Size()
		}
		return nil
	})
	m.set("sweep.key_us", median(keys), "us")
	m.set("sweep.store_us_p50", median(stores), "us")
	m.set("sweep.load_us_p50", median(loads), "us")
	if tl, err := tail(stores); err == nil {
		m.set("sweep.store_us_tail", tl.Value, "us")
	}
	if tl, err := tail(loads); err == nil {
		m.set("sweep.load_us_tail", tl.Value, "us")
	}
	if n := len(stores); n > 0 {
		m.set("sweep.cell_bytes", float64(size)/float64(n), "bytes")
	}
	return nil
}

// family names a method's transport family for methods.run_us.*.
func family(s methods.Spec) string {
	switch {
	case s.API == browser.APIWebSocket:
		return "websocket"
	case s.Transport == methods.TransportHTTP:
		return "http"
	}
	return "socket"
}

// replay is the simulator ladder's accounting across replayed cells.
type replay struct {
	runs, events, records, segments, retx int
	beginRuns                             int
	wall, match                           time.Duration
	runUs                                 map[string][]float64
	frames                                []capturedFrame
	slabBytes                             uint64
	resets                                uint64
}

// capturedFrame is one frame of a replayed run, kept for the codec
// measurements.
type capturedFrame struct {
	family string
	at     time.Duration
	dir    netsim.Direction
	data   []byte
}

// simLadder replays, from outside, the first cell of each transport
// family: testbed.New on the benchmark's own arena plus methods.Runner,
// BeginRun → Run → Cap.MatchRTT per run. Its samples must equal
// core.Run's for the same configuration.
func simLadder(opts *core.StudyOptions, m metrics, t *tally) error {
	rp := &replay{runUs: map[string][]float64{}}
	done := map[string]bool{}
	for mi := range opts.Methods {
		spec := methods.Get(opts.Methods[mi])
		fam := family(spec)
		if done[fam] {
			continue
		}
		for pi := range opts.Profiles {
			cfg, ok := core.CellConfig(opts, mi, pi)
			if !ok {
				continue
			}
			done[fam] = true
			ref, err := core.Run(cfg)
			if err != nil {
				t.fail(1, fmt.Sprintf("ladder: core.Run %s: %v", spec.Name, err))
				break
			}
			got, err := rp.cell(cfg, fam)
			switch {
			case err != nil:
				t.fail(1, fmt.Sprintf("ladder: replay %s: %v", spec.Name, err))
			case !reflect.DeepEqual(got, ref.Samples):
				t.wrongOutput(1, fmt.Sprintf("ladder: replayed %s samples differ from core.Run", spec.Name))
			default:
				t.ok(1)
			}
			break
		}
	}
	if rp.runs == 0 {
		return fmt.Errorf("ladder: no cell replayed")
	}
	runs := float64(rp.runs)
	for _, fam := range []string{"http", "socket", "websocket"} {
		m.set("methods.run_us."+fam, median(rp.runUs[fam]), "us")
	}
	m.set("eventsim.events_per_run", float64(rp.events)/runs, "count")
	m.set("eventsim.ns_per_event", float64(rp.wall)/float64(max(rp.events, 1)), "ns")
	m.set("netsim.frames_per_run", float64(rp.records)/runs, "count")
	m.set("capture.match_ns_per_record", float64(rp.match)/float64(max(rp.records, 1)), "ns")
	m.set("tcpsim.segments_per_run", float64(rp.segments)/runs, "count")
	m.set("arena.slab_bytes", float64(rp.slabBytes), "bytes")
	m.set("arena.reset_skips", float64(uint64(rp.beginRuns)-rp.resets), "count")
	codecLayers(rp.frames, opts.BaseSeed, m)

	// Retransmissions need loss: replay the first cell once more under
	// ladderLoss.
	lossy := *opts
	lossy.Testbed.Faults = ladderLoss
	if cfg, ok := core.CellConfig(&lossy, 0, 0); ok {
		lrp := &replay{runUs: map[string][]float64{}}
		if _, err := lrp.cell(cfg, family(methods.Get(cfg.Method))); err != nil {
			t.fail(1, fmt.Sprintf("ladder: replay under %s: %v", ladderLoss, err))
		} else {
			t.ok(1)
			m.set("tcpsim.retx_per_run", float64(lrp.retx)/float64(lrp.runs), "count")
		}
	}
	return tcpBulk(opts, m)
}

// cell replays one cell and returns its samples.
func (rp *replay) cell(cfg core.Config, fam string) ([]core.Sample, error) {
	cfg.Normalize()
	a := arena.New(0)
	tbCfg := cfg.Testbed
	tbCfg.Arena = a
	tb := testbed.New(tbCfg)
	if cfg.Warp > 0 {
		tb.Advance(cfg.Warp)
	}
	r := &methods.Runner{TB: tb, Profile: cfg.Profile, Timing: cfg.Timing}
	out := make([]core.Sample, 0, cfg.Runs*methods.Rounds)
	start := time.Now()
	fired := tb.Sim.Fired()
	for run := 0; run < cfg.Runs; run++ {
		r.RunIndex = run
		tb.BeginRun()
		rp.beginRuns++
		runStart := time.Now()
		res, err := r.Run(cfg.Method)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", run, err)
		}
		rp.runUs[fam] = append(rp.runUs[fam], us(time.Since(runStart)))
		recs := tb.Cap.Records()
		matchStart := time.Now()
		pairs := tb.Cap.MatchRTT(res.ServerPort)
		rp.match += time.Since(matchStart)
		rp.records += len(recs)
		if len(pairs) < methods.Rounds {
			return nil, fmt.Errorf("run %d captured %d wire pairs", run, len(pairs))
		}
		if run == cfg.Runs-1 {
			for _, rec := range recs {
				rp.frames = append(rp.frames, capturedFrame{family: fam, at: rec.Time, dir: rec.Dir, data: append([]byte(nil), rec.Data...)})
			}
		}
		pairs = pairs[len(pairs)-methods.Rounds:]
		for round := 1; round <= methods.Rounds; round++ {
			wp := pairs[round-1]
			brtt := res.BrowserRTT(round)
			out = append(out, core.Sample{
				Run: run, Round: round, BrowserRTT: brtt, WireRTT: wp.RTT(),
				Overhead: brtt - wp.RTT(), Handshake: res.NewConnRounds[round-1],
			})
		}
		tb.Advance(cfg.Gap)
	}
	rp.wall += time.Since(start)
	rp.events += int(tb.Sim.Fired() - fired)
	rp.runs += cfg.Runs
	rp.segments += tb.Client.SegmentsSent + tb.Server.SegmentsSent
	rp.retx += tb.Client.SegmentsRetransmitted + tb.Server.SegmentsRetransmitted
	as := a.Stats()
	rp.slabBytes = max(rp.slabBytes, as.SlabBytes)
	rp.resets += as.Resets
	return out, nil
}

// codecLayers times the netsim, httpsim, wssim and faults codecs over
// the frames the replay captured.
func codecLayers(frames []capturedFrame, seed int64, m metrics) {
	var p netsim.Packet
	if len(frames) > 0 {
		d := perOp(func() {
			for i := range frames {
				_ = p.Parse(frames[i].data, frames[i].at)
			}
		})
		m.set("netsim.codec_ns_per_frame", float64(d)/float64(len(frames)), "ns")
	}

	var reqs, resps, wsFrames [][]byte
	for _, f := range frames {
		var pk netsim.Packet
		if pk.Parse(f.data, f.at) != nil || len(pk.Payload) == 0 || pk.TCP == nil {
			continue
		}
		pl := append([]byte(nil), pk.Payload...)
		switch {
		case f.family == "http" && f.dir == netsim.DirOut:
			if _, _, err := httpsim.ParseRequest(pl); err == nil {
				reqs = append(reqs, pl)
			}
		case f.family == "http":
			if _, _, err := httpsim.ParseResponse(pl); err == nil {
				resps = append(resps, pl)
			}
		case f.family == "websocket":
			if _, _, err := wssim.ParseFrame(pl); err == nil {
				wsFrames = append(wsFrames, pl)
			}
		}
	}
	if n := len(reqs) + len(resps); n > 0 {
		parse := perOp(func() {
			for _, b := range reqs {
				_, _, _ = httpsim.ParseRequest(b)
			}
			for _, b := range resps {
				_, _, _ = httpsim.ParseResponse(b)
			}
		})
		var rq []*httpsim.Request
		var rs []*httpsim.Response
		for _, b := range reqs {
			r, _, _ := httpsim.ParseRequest(b)
			rq = append(rq, r)
		}
		for _, b := range resps {
			r, _, _ := httpsim.ParseResponse(b)
			rs = append(rs, r)
		}
		marshal := perOp(func() {
			for _, r := range rq {
				_ = r.Marshal()
			}
			for _, r := range rs {
				_ = r.Marshal()
			}
		})
		m.set("httpsim.parse_ns_per_msg", float64(parse)/float64(n), "ns")
		m.set("httpsim.marshal_ns_per_msg", float64(marshal)/float64(n), "ns")
	}
	if n := len(wsFrames); n > 0 {
		d := perOp(func() {
			for _, b := range wsFrames {
				f, _, err := wssim.ParseFrame(b)
				if err == nil {
					_ = f.Marshal()
				}
			}
		})
		m.set("wssim.frame_ns", float64(d)/float64(n), "ns")
	}

	if len(frames) == 0 {
		return
	}
	params, _ := ladderLoss.Params()
	d := perOp(func() {
		im := faults.New(params, seed, nil)
		for i, f := range frames {
			_ = im.Judge(i&1, len(f.data), f.at, f.at)
		}
	})
	m.set("faults.judge_ns_per_frame", float64(d)/float64(len(frames)), "ns")
	// A replay captures too few frames to see 1% loss; judge them over
	// judgeRounds consecutive runs' worth for the ratio.
	const judgeRounds = 200
	im := faults.New(params, seed, nil)
	for r := 0; r < judgeRounds; r++ {
		for i, f := range frames {
			_ = im.Judge(i&1, len(f.data), f.at, f.at)
		}
	}
	c := im.Stats
	m.set("faults.drop_ratio", float64(c.DropsLoss+c.DropsQueue)/float64(c.Judged), "ratio")
}

// tcpBulk times a bulk transfer on a fresh testbed and reports the wall
// time per TCP segment.
func tcpBulk(opts *core.StudyOptions, m metrics) error {
	cfg, ok := core.CellConfig(opts, 0, 0)
	if !ok {
		return fmt.Errorf("ladder: first cell is not runnable")
	}
	cfg.Normalize()
	tb := testbed.New(cfg.Testbed)
	r := &methods.Runner{TB: tb, Profile: cfg.Profile, Timing: cfg.Timing}
	start := time.Now()
	if _, err := r.RunThroughput(cfg.Method, 1<<20); err != nil {
		return fmt.Errorf("ladder: bulk transfer: %w", err)
	}
	wall := time.Since(start)
	segs := tb.Client.SegmentsSent + tb.Server.SegmentsSent
	m.set("tcpsim.ns_per_segment", float64(wall)/float64(max(segs, 1)), "ns")
	return nil
}

// shardLayer times the shard control codec over one message of each
// type a lease cycle exchanges.
func shardLayer(m metrics) {
	msgs := []*shard.Msg{
		{Type: shard.MsgHello, Name: "w0", SweepID: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"},
		{Type: shard.MsgHelloAck, OK: true, Shards: 16},
		{Type: shard.MsgLeaseReq},
		{Type: shard.MsgLeaseGrant, Shard: 3, Shards: 16, TTL: 5 * time.Second},
		{Type: shard.MsgRenew, Shard: 3, Done: 4},
		{Type: shard.MsgRenewAck, OK: true},
		{Type: shard.MsgShardDone, Shard: 3, Computed: 5, Cached: 1},
		{Type: shard.MsgDoneAck, OK: true},
	}
	var buf []byte
	d := perOp(func() {
		for _, msg := range msgs {
			buf, _ = shard.AppendMsg(buf[:0], msg)
			_, _, _ = shard.DecodeMsg(buf)
		}
	})
	m.set("shard.frame_ns", float64(d)/float64(len(msgs)), "ns")
}

// fleetLadderSessions sizes the ladder's fleet population.
const fleetLadderSessions = 20_000

// fleetLadder ingests a seeded population into a fresh fleet plane with
// one goroutine, runs one fan-in, and times the wire decode and sketch
// merge on the frame it produced. Figures fleet-ingest measured in its
// own run are kept.
func fleetLadder(e *env, m metrics, t *tally) {
	pop := buildPopulation(fleetLadderSessions, fleetRounds, e.seed)
	fp := newFleetPlane(pop)
	n := len(pop.ids)
	// Ingest on fleet-ingest's phase-B schedule (openLoopRate in
	// openLoopBatch batches), timing the batches and how late each began.
	perBatch := openLoopRate * int(openLoopBatch) / int(time.Second)
	var (
		lags []float64
		busy time.Duration
	)
	start := time.Now()
	for b, k := 0, 0; k < len(pop.samples); b++ {
		due := start.Add(time.Duration(b) * openLoopBatch)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		lags = append(lags, ms(t0.Sub(due)))
		for end := min(k+perBatch, len(pop.samples)); k < end; k++ {
			i, s := k%n, pop.samples[k]
			fp.reg.Observe(pop.ids[i], pop.keys[i], s.delayMs, s.lost)
		}
		busy += time.Since(t0)
	}
	m.setIfAbsent("fleet.observe_ns", float64(busy)/float64(len(pop.samples)), "ns")
	if tl, err := tail(lags); err == nil {
		m.setIfAbsent("ingest_lag_ms_tail", tl.Value, "ms")
	}
	fanIn := fp.tick()
	fleetDetail(fp, m)
	m.setIfAbsent("fleet.fanin_ms", ms(fanIn), "ms")
	m.setIfAbsent("fleet.keys", float64(len(fp.agg.Publish().Keys)), "count")

	frame := fp.lastFrame
	var f *fleetwire.Frame
	dec := perOp(func() { f, _, _ = fleetwire.DecodeFrame(frame) })
	m.set("fleetwire.decode_us", us(dec), "us")
	sk := make([]*obs.Sketch, 0, len(f.Keys))
	for _, k := range f.Keys {
		sk = append(sk, k.Sketch)
	}
	merge := perOp(func() { _ = obs.MergeSketches(sk...) })
	m.set("obs.sketch_merge_us", us(merge), "us")
	if fp.rejected.Load() > 0 {
		t.wrongOutput(1, "ladder: aggregator rejected the fan-in frame")
	} else {
		t.ok(1)
	}
}

// fleetDetail reports the fan-in sink timings the plane recorded.
func fleetDetail(fp *fleetPlane, m metrics) {
	if len(fp.sinkDur) == 0 {
		return
	}
	var sink, apply, enc, bytes []float64
	for i := range fp.sinkDur {
		sink = append(sink, us(fp.sinkDur[i]))
		apply = append(apply, us(fp.applyDur[i]))
		enc = append(enc, us(fp.encodeDur[i]))
		bytes = append(bytes, float64(fp.frameBytes[i]))
	}
	m.setIfAbsent("fleet.sink_us", median(sink), "us")
	m.setIfAbsent("fleet.agg_apply_us", median(apply), "us")
	m.setIfAbsent("fleetwire.encode_us", median(enc), "us")
	m.setIfAbsent("fleetwire.frame_bytes", median(bytes), "bytes")
}
