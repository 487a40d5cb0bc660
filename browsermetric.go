// Package browsermetric appraises the delay accuracy of browser-based
// network measurement, reproducing Li, Mok, Chang and Fok, "Appraising the
// Delay Accuracy in Browser-based Network Measurement" (ACM IMC 2013).
//
// # What it does
//
// Browser-based tools (speedtests, Netalyzr-style diagnostics) estimate
// the network round-trip time from timestamps taken inside the browser.
// Those timestamps sit above JavaScript engines, plugin bridges, HTTP
// stacks and coarse timing APIs, so the reported RTT differs from the
// wire RTT by a delay overhead:
//
//	Δd = (tBr − tBs) − (tNr − tNs)        (paper Eq. 1)
//
// This library measures Δd for the paper's ten measurement methods
// (XHR GET/POST, DOM, WebSocket, Flash GET/POST, Flash TCP, Java applet
// GET/POST/TCP — plus the Java UDP variant) across calibrated models of
// the paper's five browsers on Windows 7 and Ubuntu 12.04, on a
// deterministic virtual testbed with a packet-capture ground truth. It
// regenerates every table and figure of the paper's evaluation, and also
// ships a real-network mode (a deployable measurement server plus live
// client drivers over real sockets).
//
// # Quickstart
//
//	exp, err := browsermetric.Appraise(browsermetric.MethodWebSocket,
//		browsermetric.Chrome, browsermetric.Ubuntu,
//		browsermetric.Options{Runs: 50})
//	if err != nil { ... }
//	box := exp.Box(2) // Δd2 five-number summary, in milliseconds
//	fmt.Printf("median overhead: %.2f ms\n", box.Median)
//
// See the examples directory for full programs and DESIGN.md for the
// architecture and the per-experiment index.
package browsermetric

import (
	"context"
	"fmt"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/liveclient"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/server"
	"github.com/browsermetric/browsermetric/internal/shard"
	"github.com/browsermetric/browsermetric/internal/stats"
	"github.com/browsermetric/browsermetric/internal/sweep"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// Method identifies a measurement method (paper Table 1).
type Method = methods.Kind

// The ten compared methods plus the Java UDP extension.
const (
	MethodXHRGet    Method = methods.XHRGet
	MethodXHRPost   Method = methods.XHRPost
	MethodDOM       Method = methods.DOM
	MethodWebSocket Method = methods.WebSocket
	MethodFlashGet  Method = methods.FlashGet
	MethodFlashPost Method = methods.FlashPost
	MethodFlashTCP  Method = methods.FlashTCP
	MethodJavaGet   Method = methods.JavaGet
	MethodJavaPost  Method = methods.JavaPost
	MethodJavaTCP   Method = methods.JavaTCP
	MethodJavaUDP   Method = methods.JavaUDP
)

// Browser identifies a browser model (paper Table 2).
type Browser = browser.Name

// The five browsers plus the appletviewer control environment.
const (
	Chrome       Browser = browser.Chrome
	Firefox      Browser = browser.Firefox
	IE           Browser = browser.IE
	Opera        Browser = browser.Opera
	Safari       Browser = browser.Safari
	Appletviewer Browser = browser.Appletviewer
)

// OS identifies the client operating system.
type OS = browser.OS

// The two systems of the paper's testbed.
const (
	Windows OS = browser.Windows
	Ubuntu  OS = browser.Ubuntu
)

// TimingFunc selects the timestamping API measurement code uses.
type TimingFunc = browser.TimingFunc

// GetTime is Date.getTime() (the paper's tool default, quantized);
// NanoTime is System.nanoTime() (the Section 4.2 fix, exact).
const (
	GetTime  TimingFunc = browser.GetTime
	NanoTime TimingFunc = browser.NanoTime
)

// Profile is a calibrated browser×OS model.
type Profile = browser.Profile

// Experiment is a completed measurement cell; see its Box, CDF, MeanCI,
// JitterInflation, ThroughputBias and Calibrate methods.
type Experiment = core.Experiment

// Sample is one round of one run (browser RTT, wire RTT, overhead).
type Sample = core.Sample

// Study is a full method × browser×OS matrix (Figure 3).
type Study = core.Study

// Cell is one (method, profile) experiment of a study.
type Cell = core.Cell

// Calibration is per-method, per-browser overhead-correction data.
type Calibration = core.Calibration

// Recommendation is the data-derived Section 5 guidance.
type Recommendation = core.Recommendation

// Box is a five-number summary with 1.5·IQR whiskers (Figure 3 unit: ms).
type Box = stats.Box

// CDF is an empirical distribution function (Figure 4).
type CDF = stats.CDF

// Spec is the Table 1 row describing a method.
type Spec = methods.Spec

// TestbedConfig tunes the simulated network (defaults reproduce Fig. 2).
type TestbedConfig = testbed.Config

// Options configures Appraise.
type Options struct {
	// Timing selects the timestamp API (default GetTime, as the paper's
	// surveyed tools use).
	Timing TimingFunc
	// Runs is the repetition count (default 50).
	Runs int
	// Gap is the idle time between repetitions (default 10 s of virtual
	// time; spreading runs is what exposes Windows granularity regimes).
	Gap time.Duration
	// Warp advances the clock before the first run.
	Warp time.Duration
	// Testbed overrides network parameters.
	Testbed TestbedConfig
	// OracleJRE swaps the browser's Java plugin for the stock Oracle JRE
	// (the paper's Safari fix in Section 5).
	OracleJRE bool
	// Load applies a background system-load factor in [0, 1] to the
	// browser model (0 = the paper's idle testbed). Plugin-based methods
	// degrade the most under load.
	Load float64
	// Tracer and Metrics, when non-nil, capture the experiment's
	// observability stream (spans / counters). Purely observational.
	Tracer  *Tracer
	Metrics *Metrics
}

// Appraise measures the delay overhead of one method in one browser×OS
// environment and returns the completed experiment.
func Appraise(m Method, b Browser, os OS, opts Options) (*Experiment, error) {
	cfg, err := optsToConfig(m, b, os, opts)
	if err != nil {
		return nil, err
	}
	return core.Run(cfg)
}

// AppraiseProfile is Appraise for a caller-supplied profile — e.g. a
// load-adjusted profile, or ModernProfile for a plugin-free evergreen
// browser with performance.now-class timing.
func AppraiseProfile(m Method, prof *Profile, opts Options) (*Experiment, error) {
	if prof == nil {
		return nil, fmt.Errorf("browsermetric: nil profile")
	}
	if opts.OracleJRE {
		prof = prof.WithOracleJRE()
	}
	if opts.Load > 0 {
		prof = prof.WithLoad(opts.Load)
	}
	return core.Run(core.Config{
		Method:  m,
		Profile: prof,
		Timing:  opts.Timing,
		Runs:    opts.Runs,
		Gap:     opts.Gap,
		Warp:    opts.Warp,
		Testbed: opts.Testbed,
		Tracer:  opts.Tracer,
		Metrics: opts.Metrics,
	})
}

// ModernProfile returns a forward-looking plugin-free browser model (not
// part of the Table 2 matrix) for contrasting 2013 with today.
func ModernProfile(os OS) *Profile { return browser.ModernProfile(os) }

// StudyOptions configures RunStudy; zero values reproduce the paper's
// full matrix (ten methods × eight combos × 50 runs) on a
// GOMAXPROCS-wide worker pool. Set Workers to 1 for strictly sequential
// execution — results are byte-identical either way.
type StudyOptions = core.StudyOptions

// CellStatus is the per-cell progress report passed to
// StudyOptions.OnCellDone.
type CellStatus = core.CellStatus

// StudyStats are the study scheduler's observability counters
// (Study.Stats): cells started/finished/skipped/failed and wall time.
type StudyStats = core.StudyStats

// RunStudy executes a full measurement matrix, fanning the (method,
// profile) cells out over StudyOptions.Workers goroutines. Each cell runs
// on its own isolated testbed with a seed derived from its matrix
// position, so the exported results do not depend on the schedule.
func RunStudy(opts StudyOptions) (*Study, error) { return core.RunStudy(opts) }

// RunStudyContext is RunStudy with cancellation: canceling ctx aborts the
// study promptly and returns ctx.Err(); the first cell failure cancels
// the remaining work.
func RunStudyContext(ctx context.Context, opts StudyOptions) (*Study, error) {
	return core.RunStudyContext(ctx, opts)
}

// CellSeed is the pure per-cell seed derivation RunStudy uses:
// CellSeed(BaseSeed, methodIndex, profileIndex). Exposed so external
// harnesses can reproduce any single cell of a study in isolation.
func CellSeed(base int64, methodIndex, profileIndex int) int64 {
	return core.CellSeed(base, methodIndex, profileIndex)
}

// Recommend distills the Section 5 guidance from a study.
func Recommend(s *Study) Recommendation { return core.Recommend(s) }

// --- Fault injection ---

// FaultProfile names a canned network-impairment scenario applied to the
// testbed's server link (TestbedConfig.Faults). The zero value runs the
// paper's pristine wire.
type FaultProfile = faults.Profile

// The built-in fault profiles.
const (
	// FaultClean is the paper's loss-free LAN (no impairment installed).
	FaultClean FaultProfile = faults.Clean
	// FaultLossy1pct drops 1% of frames independently.
	FaultLossy1pct FaultProfile = faults.Lossy1pct
	// FaultBurstyWiFi is Gilbert–Elliott bursty loss with jitter,
	// reordering and duplication — an interfered wireless link.
	FaultBurstyWiFi FaultProfile = faults.BurstyWiFi
	// FaultCongested is a rate-limited bottleneck with a finite queue.
	FaultCongested FaultProfile = faults.Congested
)

// FaultProfiles lists the built-in fault profiles in severity order.
func FaultProfiles() []FaultProfile { return faults.Profiles() }

// ParseFaultProfile resolves a profile name case-insensitively; "" and
// "none" mean FaultClean. Unknown names error.
func ParseFaultProfile(s string) (FaultProfile, error) { return faults.Parse(s) }

// FaultImpactOptions configures RunFaultImpact.
type FaultImpactOptions = core.FaultImpactOptions

// FaultImpact is a completed impairment study: per-method Δd quantiles
// under a sweep of fault profiles, with a text Report.
type FaultImpact = core.FaultImpact

// MethodFaultImpact is one row of the impact matrix.
type MethodFaultImpact = core.MethodFaultImpact

// RunFaultImpact appraises every method under each fault profile with
// identical seeds and tabulates how the Δd distribution degrades. The
// expected shape mirrors the paper's handshake finding: methods that open
// TCP connections inside the timed window grow heavy tails at the first
// lost handshake segment, while socket methods stay tight because loss
// recovery happens below both the browser and the capture clocks.
func RunFaultImpact(ctx context.Context, opts FaultImpactOptions) (*FaultImpact, error) {
	return core.RunFaultImpact(ctx, opts)
}

// --- Sweep engine: content-addressed cache, resumable by rerun ---

// CellCache caches completed study cells keyed by their full config; set
// StudyOptions.Cache to one to make repeated studies warm. The contract:
// a cached replay exports byte-identically to recomputation.
type CellCache = core.CellCache

// SweepCache is the content-addressed disk implementation of CellCache:
// one checksummed file per cell under <dir>/cells, addressed by the
// SHA-256 of the cell's canonical config plus a code-version salt.
// Corrupt entries are detected, logged and recomputed, never served.
type SweepCache = sweep.Cache

// SweepCacheStats snapshots a cache's hit/miss/corruption counters.
type SweepCacheStats = sweep.CacheStats

// OpenSweepCache opens (creating if needed) a cell cache rooted at dir.
// An empty salt selects SweepSalt.
func OpenSweepCache(dir, salt string) (*SweepCache, error) { return sweep.OpenCache(dir, salt) }

// SweepSalt is the current code-version salt; cells cached under another
// salt miss and are recomputed.
const SweepSalt = sweep.DefaultSalt

// SweepOptions configures RunSweep: the methods × browsers × fault-
// profiles matrix and the cache directory.
type SweepOptions = sweep.Options

// SweepResult is a completed sweep (one study per fault profile and
// warm/cold counters) with WriteCSV and Report exports.
type SweepResult = sweep.Result

// SweepStats summarizes a sweep (computed vs cached cells, corrupt
// entries recomputed, wall time).
type SweepStats = sweep.Stats

// RunSweep crosses methods × browser profiles × fault profiles into a
// single cache-backed run on the deterministic scheduler. Every completed
// cell is persisted in the content-addressed cache — the sweep's only
// state — so rerunning a killed sweep against the same SweepOptions.Dir
// replays the finished cells, computes only the missing ones, and still
// exports byte-identically to an uninterrupted run.
func RunSweep(ctx context.Context, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(ctx, opts)
}

// --- Distributed shard runner ---

// ShardCoordinator partitions a sweep's cell matrix into shards and
// leases them to worker processes over a framed loopback/LAN control
// protocol; once every shard completes it replays the sweep warm from
// the shared cache, producing output byte-identical to a single-process
// RunSweep.
type ShardCoordinator = shard.Coordinator

// ShardCoordinatorOptions configures NewShardCoordinator.
type ShardCoordinatorOptions = shard.CoordinatorOptions

// ShardStats snapshots the coordinator's counters (the shard_* metric
// families).
type ShardStats = shard.Stats

// ShardWorkerOptions configures RunShardWorker.
type ShardWorkerOptions = shard.WorkerOptions

// ShardWorkerStats summarizes one worker's contribution to a sweep.
type ShardWorkerStats = shard.WorkerStats

// DefaultShardCount is the default partition count for a sharded sweep.
const DefaultShardCount = shard.DefaultShards

// NewShardCoordinator starts the coordinator listening; point workers at
// its Addr() and call Wait for the merged result. Workers must be
// configured with an identical SweepOptions — the handshake enforces it.
func NewShardCoordinator(opts ShardCoordinatorOptions) (*ShardCoordinator, error) {
	return shard.NewCoordinator(opts)
}

// RunShardWorker connects to a coordinator and executes leased shards
// (through the shared content-addressed cache) until the sweep is done.
func RunShardWorker(ctx context.Context, opts ShardWorkerOptions) (ShardWorkerStats, error) {
	return shard.RunWorker(ctx, opts)
}

// --- Observability ---

// Tracer records virtual-time spans across a testbed run; see the
// internal/obs package doc for the span taxonomy and the determinism
// guarantee. A nil *Tracer is the disabled tracer (zero-cost no-ops).
type Tracer = obs.Tracer

// Span is one traced operation with virtual start/end and attributes.
type Span = obs.Span

// Metrics is a registry of counters, gauges and fixed-bucket histograms
// fed by the simulated stack and the study scheduler. A nil *Metrics is
// the disabled registry.
type Metrics = obs.Metrics

// NewTracer returns an enabled span tracer for Options/StudyOptions.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an enabled metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// CellStatsTable renders the n slowest study cells by host wall time
// (the data behind `appraise -cellstats`).
func CellStatsTable(s *Study, n int) string { return core.CellStatsTable(s, n) }

// Profiles returns the Table 2 browser×OS matrix.
func Profiles() []*Profile { return browser.Profiles() }

// LookupProfile returns one profile, or nil for combos outside Table 2.
func LookupProfile(b Browser, os OS) *Profile { return browser.Lookup(b, os) }

// Methods returns the Table 1 taxonomy (all eleven specs).
func Methods() []Spec { return methods.All() }

// ComparedMethods returns the ten methods the paper's evaluation compares.
func ComparedMethods() []Spec { return methods.Compared() }

// Report generators: each returns the text regeneration of a paper
// artifact. See EXPERIMENTS.md for the mapping and expectations.
var (
	// Table1 renders the method taxonomy.
	Table1 = core.Table1
	// Table2 renders the browser/system matrix.
	Table2 = core.Table2
	// Fig3 renders per-method box summaries from a study.
	Fig3 = core.Fig3
	// Fig4 runs and renders the Java-socket CDF experiment (browsers +
	// appletviewer control).
	Fig4 = core.Fig4
	// Fig4ASCII renders the Figure 4 CDFs as terminal decile bars.
	Fig4ASCII = core.Fig4ASCII
	// Fig5 runs and renders the timestamp-granularity probe.
	Fig5 = core.Fig5
	// Table3 runs and renders the Opera Flash GET/POST medians.
	Table3 = core.Table3
	// Table4 runs and renders the Java methods with System.nanoTime.
	Table4 = core.Table4
)

// --- Overhead attribution and derived-metric impact ---

// Attribution decomposes one overhead sample into send path, receive
// path, handshake and residual (clock error).
type Attribution = core.Attribution

// AttributedSample pairs a Sample with its Attribution.
type AttributedSample = core.AttributedSample

// AppraiseAttributed is Appraise plus per-sample attribution.
func AppraiseAttributed(m Method, b Browser, os OS, opts Options) (*Experiment, []AttributedSample, error) {
	cfg, err := optsToConfig(m, b, os, opts)
	if err != nil {
		return nil, nil, err
	}
	return core.RunAttributed(cfg)
}

// JitterImpact compares tool-reported vs wire jitter over a probe train.
type JitterImpact = core.JitterImpact

// MeasureJitter runs a probes-long train and compares both jitters.
func MeasureJitter(m Method, b Browser, os OS, opts Options, probes int) (JitterImpact, error) {
	cfg, err := optsToConfig(m, b, os, opts)
	if err != nil {
		return JitterImpact{}, err
	}
	return core.MeasureJitter(cfg, probes)
}

// ThroughputImpact compares tool-computed vs wire round-trip throughput.
type ThroughputImpact = core.ThroughputImpact

// MeasureThroughput runs one bulk transfer of size bytes.
func MeasureThroughput(m Method, b Browser, os OS, opts Options, size int) (ThroughputImpact, error) {
	cfg, err := optsToConfig(m, b, os, opts)
	if err != nil {
		return ThroughputImpact{}, err
	}
	return core.MeasureThroughput(cfg, size)
}

// LossImpact compares tool-reported vs capture-observed loss rates.
type LossImpact = core.LossImpact

// MeasureLoss runs a UDP probe train under the configured link loss.
func MeasureLoss(b Browser, os OS, opts Options, probes int) (LossImpact, error) {
	cfg, err := optsToConfig(MethodJavaUDP, b, os, opts)
	if err != nil {
		return LossImpact{}, err
	}
	return core.MeasureLoss(cfg, probes)
}

// Fig3ASCII renders Figure 3 as terminal box-plot art.
var Fig3ASCII = core.Fig3ASCII

// MarkdownReport renders a study as a self-contained Markdown document.
var MarkdownReport = core.MarkdownReport

// AttributionReport renders mean per-round overhead attribution.
func AttributionReport(m Method, b Browser, os OS, opts Options) (string, error) {
	cfg, err := optsToConfig(m, b, os, opts)
	if err != nil {
		return "", err
	}
	return core.AttributionReport(cfg)
}

// ImpactReport renders jitter/throughput/loss impact for one profile.
func ImpactReport(b Browser, os OS, timing TimingFunc) (string, error) {
	prof := browser.Lookup(b, os)
	if prof == nil {
		return "", fmt.Errorf("browsermetric: %v on %v is not a Table 2 configuration", b, os)
	}
	return core.ImpactReport(prof, timing)
}

// ServerOverhead is one point of a server-side processing sweep.
type ServerOverhead = core.ServerOverhead

// MeasureServerOverhead sweeps server processing cost for an HTTP method,
// showing it lands in the wire RTT, invisible to client-side calibration
// (the paper's Section 7 extension).
func MeasureServerOverhead(m Method, b Browser, os OS, opts Options, parseCosts []time.Duration) ([]ServerOverhead, error) {
	cfg, err := optsToConfig(m, b, os, opts)
	if err != nil {
		return nil, err
	}
	return core.MeasureServerOverhead(cfg, parseCosts)
}

// ServerOverheadReport renders the server-side sweep for one profile.
func ServerOverheadReport(b Browser, os OS, timing TimingFunc, runs int) (string, error) {
	prof := browser.Lookup(b, os)
	if prof == nil {
		return "", fmt.Errorf("browsermetric: %v on %v is not a Table 2 configuration", b, os)
	}
	return core.ServerOverheadReport(prof, timing, runs)
}

func optsToConfig(m Method, b Browser, os OS, opts Options) (core.Config, error) {
	prof := browser.Lookup(b, os)
	if prof == nil {
		return core.Config{}, fmt.Errorf("browsermetric: %v on %v is not a Table 2 configuration", b, os)
	}
	if opts.OracleJRE {
		prof = prof.WithOracleJRE()
	}
	if opts.Load > 0 {
		prof = prof.WithLoad(opts.Load)
	}
	return core.Config{
		Method:  m,
		Profile: prof,
		Timing:  opts.Timing,
		Runs:    opts.Runs,
		Gap:     opts.Gap,
		Warp:    opts.Warp,
		Testbed: opts.Testbed,
		Tracer:  opts.Tracer,
		Metrics: opts.Metrics,
	}, nil
}

// --- Real-network mode ---

// Server is a deployable measurement server (HTTP probe endpoints,
// WebSocket echo, TCP/UDP echo).
type Server = server.Server

// ServerConfig configures StartServer.
type ServerConfig = server.Config

// ServerAddrs lists a running server's bound addresses.
type ServerAddrs = server.Addrs

// StartServer launches the real-network measurement server.
func StartServer(cfg ServerConfig) (*Server, error) { return server.Start(cfg) }

// LiveMethod is a real-socket measurement driver.
type LiveMethod = liveclient.Method

// LiveMeasurement is one live probe's timestamps.
type LiveMeasurement = liveclient.Measurement

// Live drivers mirroring the method taxonomy over real sockets.
var (
	NewLiveHTTPGet   = liveclient.NewHTTPGet
	NewLiveHTTPPost  = liveclient.NewHTTPPost
	NewLiveWebSocket = liveclient.NewWebSocket
	NewLiveTCP       = liveclient.NewTCP
	NewLiveUDP       = liveclient.NewUDP
)

// AppraiseLive runs n probes through a live driver and summarizes the
// overhead distribution (box stats in ms, mean ± 95% CI).
func AppraiseLive(m LiveMethod, n int) (Box, float64, float64, error) {
	return liveclient.Appraise(m, n)
}
