package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/fleet"
	"github.com/browsermetric/browsermetric/internal/fleetwire"
)

const (
	// fleetSessions and fleetRounds size the population like loadgen's
	// default run: 100k sessions, 5 probe samples each.
	fleetSessions = 100_000
	fleetRounds   = 5
	// fleetShards is the registry shard count (loadgen's default).
	fleetShards = 64
	// fanInPeriod is the fixed fan-in ticker period.
	fanInPeriod = 250 * time.Millisecond
	// openLoopRate is phase B's offered load in samples per second, about
	// half of phase A's closed-loop throughput on a 2-core host.
	openLoopRate = 1_000_000
	// openLoopBatch is the open-loop schedule's granularity.
	openLoopBatch = time.Millisecond
)

// fleetRegion is one synthetic client population: base RTT and loss.
type fleetRegion struct {
	name string
	base float64 // ms
	loss float64
}

var fleetRegions = []fleetRegion{
	{name: "us", base: 20, loss: 0.002},
	{name: "eu", base: 35, loss: 0.003},
	{name: "ap", base: 70, loss: 0.008},
	{name: "sa", base: 95, loss: 0.012},
}

// fleetMethod maps a fleet method label to the browser API whose cost
// model shapes the client-side overhead.
type fleetMethod struct {
	label string
	api   browser.API
	post  bool
}

var fleetMethods = []fleetMethod{
	{label: "http-get", api: browser.APIXHR},
	{label: "http-post", api: browser.APIXHR, post: true},
	{label: "websocket", api: browser.APIWebSocket},
	{label: "tcp", api: browser.APIJavaSocket},
	{label: "udp", api: browser.APIJavaUDP},
}

// fleetSample is one generated probe result.
type fleetSample struct {
	delayMs float64
	lost    bool
}

// population is the fleet-ingest input: every session's identity and
// its generated samples, round-major (samples[r*n+i] is session i's
// round r).
type population struct {
	ids     []uint64
	keys    []fleet.Key
	samples []fleetSample
}

// buildPopulation deals n sessions across methods × profiles × regions
// and draws their samples from the browser cost models: base RTT plus
// the profile's send and receive path costs. The deal order is shuffled
// by the seed and the draws come from a seeded stream, so the population
// is a pure function of (n, rounds, seed).
func buildPopulation(n, rounds int, seed int64) *population {
	profiles := browser.Profiles()
	rng := rand.New(rand.NewSource(seed))
	p := &population{ids: make([]uint64, n), keys: make([]fleet.Key, n), samples: make([]fleetSample, n*rounds)}
	type client struct {
		prof *browser.Profile
		api  browser.API
		post bool
		reg  fleetRegion
	}
	clients := make([]client, n)
	perm := rng.Perm(n)
	for i := range clients {
		j := perm[i]
		m := fleetMethods[j%len(fleetMethods)]
		prof := profiles[(j/len(fleetMethods))%len(profiles)]
		reg := fleetRegions[(j/(len(fleetMethods)*len(profiles)))%len(fleetRegions)]
		api := m.api
		if !prof.Supports(api) {
			api = browser.APIXHR
		}
		clients[i] = client{prof: prof, api: api, post: m.post, reg: reg}
		p.ids[i] = uint64(i + 1)
		p.keys[i] = fleet.Key{Method: m.label, Browser: prof.Label(), Region: reg.name}
	}
	for r := 0; r < rounds; r++ {
		for i := range clients {
			c := &clients[i]
			s := &p.samples[r*n+i]
			if rng.Float64() < c.reg.loss {
				s.lost = true
				continue
			}
			send := c.prof.SendCost(c.api, r+1, c.post, rng)
			recv := c.prof.RecvCost(c.api, rng)
			s.delayMs = c.reg.base + float64(send+recv)/float64(time.Millisecond)
		}
	}
	return p
}

// fleetPlane is the system under test: one registry whose fan-in deltas
// are encoded with fleetwire and POSTed in-process to an aggregator.
type fleetPlane struct {
	reg      *fleet.Registry
	agg      *fleet.Aggregator
	ingest   http.Handler
	rejected atomic.Int64 // POSTs the aggregator refused
	frames   atomic.Int64
	pop      *population

	tr       *tracer // nil in untraced runs
	tickSpan span

	// Per-tick sink accounting: the current tick's sink time, and every
	// tick's sink, aggregator apply and encode times and frame size.
	tickSink          time.Duration
	sinkDur, applyDur []time.Duration
	encodeDur         []time.Duration
	frameBytes        []int
	lastFrame         []byte
}

func newFleetPlane(pop *population) *fleetPlane {
	fp := &fleetPlane{pop: pop}
	fp.agg = fleet.NewAggregator(fleet.AggConfig{})
	fp.ingest = fp.agg.IngestHandler()
	fp.reg = fleet.New(fleet.Config{
		Shards:      fleetShards,
		MaxSessions: len(pop.ids) + 1,
		Interval:    fanInPeriod,
		DeltaSink:   fp.sink,
	})
	return fp
}

// sink is the registry's DeltaSink: encode the tick with fleetwire and
// POST it to the aggregator's ingest handler (httptest, no socket).
func (fp *fleetPlane) sink(d fleet.TickDelta) {
	sinkStart := time.Now()
	sp := fp.tickSpan.child("fleet.sink")
	f := &fleetwire.Frame{Node: "bench", Epoch: 1, Seq: d.Seq, Sessions: uint64(d.Sessions)}
	f.Keys = make([]fleetwire.KeyDelta, 0, len(d.Keys))
	for _, k := range d.Keys {
		f.Keys = append(f.Keys, fleetwire.KeyDelta{
			Method: k.Key.Method, Browser: k.Key.Browser, Region: k.Key.Region,
			Count: k.Count, Lost: k.Lost, JitterSum: k.JitterSum, JitterN: k.JitterN,
			Sketch: k.Sketch,
		})
	}
	enc := sp.child("fleetwire")
	encStart := time.Now()
	body, err := fleetwire.AppendFrame(nil, f)
	encDur := time.Since(encStart)
	enc.end()
	if err != nil {
		fp.rejected.Add(1)
		sp.end()
		return
	}
	ap := sp.child("fleet.agg")
	applyStart := time.Now()
	rec := httptest.NewRecorder()
	fp.ingest.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
	applyDur := time.Since(applyStart)
	ap.end()
	fp.frames.Add(1)
	if rec.Code != http.StatusOK {
		fp.rejected.Add(1)
	}
	sp.end()
	fp.tickSink = time.Since(sinkStart)
	fp.sinkDur = append(fp.sinkDur, fp.tickSink)
	fp.applyDur = append(fp.applyDur, applyDur)
	fp.encodeDur = append(fp.encodeDur, encDur)
	fp.frameBytes = append(fp.frameBytes, len(body))
	fp.lastFrame = body
}

// tick runs one fan-in: collector pass (with the sink's POST) then the
// root's publish. It returns the collector pass's time without the sink.
func (fp *fleetPlane) tick() (fanIn time.Duration) {
	fp.tickSpan = fp.tr.begin("pass")
	sp := fp.tickSpan.child("fleet")
	start := time.Now()
	fp.tickSink = 0
	fp.reg.FanIn()
	fanIn = time.Since(start) - fp.tickSink
	sp.end()
	sp = fp.tickSpan.child("fleet.publish")
	fp.agg.Publish()
	sp.end()
	fp.tickSpan.end()
	return fanIn
}

// ingester feeds one slice of the population into the registry.
type ingester struct {
	fp       *fleetPlane
	lo, hi   int // session range
	round, i int // next sample
	accepted int64
	refused  int64
}

func (g *ingester) next() {
	pop := g.fp.pop
	n := len(pop.ids)
	s := pop.samples[(g.round%fleetRounds)*n+g.i]
	if g.fp.reg.Observe(pop.ids[g.i], pop.keys[g.i], s.delayMs, s.lost) {
		g.accepted++
	} else {
		g.refused++
	}
	if g.i++; g.i == g.hi {
		g.i = g.lo
		g.round++
	}
}

// runFleetIngest is phase A (closed loop at full speed) then phase B
// (open loop at openLoopRate), with the fan-in ticker running on a fixed
// period throughout.
func runFleetIngest(e *env, tr *tracer, m metrics, t *tally) error {
	setupS, fp, err := timeSetup(setupReps, func() (*fleetPlane, error) {
		return newFleetPlane(buildPopulation(fleetSessions, fleetRounds, e.seed)), nil
	})
	if err != nil {
		return err
	}
	m.set("setup_s", setupS, "s")
	fp.tr = tr

	g := max(1, e.nproc-1)
	ings := make([]*ingester, g)
	n := len(fp.pop.ids)
	for k := range ings {
		lo, hi := k*n/g, (k+1)*n/g
		ings[k] = &ingester{fp: fp, lo: lo, hi: hi, i: lo}
	}

	// The fan-in ticker: due times on a fixed grid from t0; latency runs
	// from the due time until the root has published.
	var (
		tickMu    sync.Mutex
		tickLat   []tickRecord
		stopTicks = make(chan struct{})
		tickDone  = make(chan struct{})
	)
	t0 := time.Now()
	go func() {
		defer close(tickDone)
		for k := 1; ; k++ {
			due := t0.Add(time.Duration(k) * fanInPeriod)
			select {
			case <-stopTicks:
				return
			case <-time.After(time.Until(due)):
			}
			fan := fp.tick()
			e.rss.mark()
			tickMu.Lock()
			tickLat = append(tickLat, tickRecord{due: due, lat: time.Since(due), fanIn: fan})
			tickMu.Unlock()
		}
	}()

	// Phase A: closed loop for a third of the run; phase B gets the rest,
	// since its tick latencies need the samples.
	var wg sync.WaitGroup
	phaseA := time.Now()
	endA := phaseA.Add(e.seconds / 3)
	for _, in := range ings {
		wg.Add(1)
		go func(in *ingester) {
			defer wg.Done()
			sp := tr.begin("fleet.observe")
			for time.Now().Before(endA) {
				for j := 0; j < 1024; j++ {
					in.next()
				}
			}
			sp.end()
		}(in)
	}
	wg.Wait()
	durA := time.Since(phaseA)
	var samplesA int64
	for _, in := range ings {
		samplesA += in.accepted + in.refused
	}

	// Phase B: open loop; each ingester owns rate/g of the schedule. It
	// runs to its planned end and on until it has tail samples of ticks.
	phaseB := time.Now()
	endB := phaseB.Add(e.seconds - e.seconds/3)
	lags := make([][]float64, g)
	perBatch := openLoopRate * int(openLoopBatch) / int(time.Second) / g
	var stopB atomic.Bool
	for k, in := range ings {
		wg.Add(1)
		go func(k int, in *ingester) {
			defer wg.Done()
			for b := 0; !stopB.Load(); b++ {
				due := phaseB.Add(time.Duration(b) * openLoopBatch)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				lags[k] = append(lags[k], ms(time.Since(due)))
				for j := 0; j < perBatch; j++ {
					in.next()
				}
			}
		}(k, in)
	}
	phaseBTicks := func() (n int) {
		tickMu.Lock()
		defer tickMu.Unlock()
		for _, r := range tickLat {
			if !r.due.Before(phaseB) {
				n++
			}
		}
		return n
	}
	time.Sleep(time.Until(endB))
	for phaseBTicks() <= tailMin {
		time.Sleep(fanInPeriod / 4)
	}
	stopB.Store(true)
	wg.Wait()
	close(stopTicks)
	<-tickDone
	// The final fan-in flushes whatever the last tick missed.
	fp.tick()

	var accepted, refused int64
	for _, in := range ings {
		accepted += in.accepted
		refused += in.refused
	}
	var tickB, fanIns []time.Duration
	for _, r := range tickLat {
		if !r.due.Before(phaseB) {
			tickB = append(tickB, r.lat)
		}
		fanIns = append(fanIns, r.fanIn)
	}
	if err := passMetrics(e, m, "pass_ms", tickB); err != nil {
		return err
	}
	var allLags []float64
	for _, l := range lags {
		allLags = append(allLags, l...)
	}
	lt, err := tail(allLags)
	if err != nil {
		return err
	}
	m.set("ingest_lag_ms_tail", lt.Value, "ms")
	m.set("samples_per_s", float64(samplesA)/durA.Seconds(), "samples/s")
	m.set("fleet.observe_ns", float64(durA.Nanoseconds())*float64(g)/float64(samplesA), "ns")
	m.set("fleet.fanin_ms", median(durMs(fanIns)), "ms")

	// Conservation: every accepted sample is in the registry snapshot and
	// in the aggregator's, and no frame was refused.
	var regCount, aggCount uint64
	for _, k := range fp.reg.Snapshot().Keys {
		regCount += k.Count
	}
	snap := fp.agg.Publish()
	for _, k := range snap.Keys {
		aggCount += k.Count
	}
	m.set("fleet.keys", float64(len(snap.Keys)), "count")
	if refused > 0 {
		t.fail(refused, "fleet: Observe refused a sample")
	}
	switch {
	case regCount != uint64(accepted) || aggCount != uint64(accepted):
		t.wrongOutput(accepted, fmt.Sprintf("fleet: %d samples ingested, registry %d, aggregator %d", accepted, regCount, aggCount))
	case fp.rejected.Load() > 0:
		t.wrongOutput(accepted, fmt.Sprintf("fleet: %d of %d frames rejected", fp.rejected.Load(), fp.frames.Load()))
	default:
		t.ok(accepted)
	}
	fmt.Fprintf(e.log, "  phase A %d samples in %.3f s; phase B %d ticks, offered %d samples/s; %d frames, %d rejected\n",
		samplesA, durA.Seconds(), len(tickB), openLoopRate, fp.frames.Load(), fp.rejected.Load())
	fleetDetail(fp, m)
	return nil
}

// tickRecord is one fan-in tick.
type tickRecord struct {
	due   time.Time
	lat   time.Duration // due -> published at the root
	fanIn time.Duration // Registry.FanIn without the sink
}
