package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/arena"
	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

// arenaEquivCases spans the method families with distinct buffer
// lifetimes (HTTP parse buffers, WebSocket frames, raw-socket echo
// payloads, the Flash policy-file dance) and the fault profiles that
// leave retransmission state alive across the 1 s inter-run gap — the
// exact regime where a premature arena reset would corrupt retransmitted
// bytes.
var arenaEquivCases = []struct {
	kind methods.Kind
	fp   faults.Profile
}{
	{methods.XHRGet, faults.Clean},
	{methods.XHRGet, faults.Congested},
	{methods.WebSocket, faults.Clean},
	{methods.WebSocket, faults.Lossy1pct},
	{methods.FlashGet, faults.BurstyWiFi},
	{methods.JavaTCP, faults.Lossy1pct},
	{methods.FlashTCP, faults.Clean},
	{methods.JavaUDP, faults.Lossy1pct},
}

// runArenaCell executes one small cell with the given arena installed.
// Gap is pinned to 1 s — the shortest gap any caller uses — so in-flight
// retransmissions have the least time to drain before the next BeginRun.
func runArenaCell(t *testing.T, kind methods.Kind, fp faults.Profile, a *arena.Arena) []Sample {
	t.Helper()
	cfg := Config{
		Method:  kind,
		Profile: browser.Lookup(browser.Chrome, browser.Windows),
		Timing:  browser.NanoTime,
		Runs:    6,
		Gap:     time.Second,
	}
	cfg.Testbed.Seed = 42
	cfg.Testbed.Faults = fp
	cfg.Testbed.Arena = a
	exp, err := Run(cfg)
	if err != nil {
		t.Fatalf("%v/%v: %v", kind, fp, err)
	}
	return exp.Samples
}

// TestArenaRunEquivalence is the determinism contract of the arena tier:
// the same cell must produce identical samples with no arena (every
// buffer heap-allocated), with a fresh arena, and with one arena reused
// across consecutive cells the way a study worker reuses it. Any
// divergence means a buffer outlived its epoch.
func TestArenaRunEquivalence(t *testing.T) {
	for _, tc := range arenaEquivCases {
		heap := runArenaCell(t, tc.kind, tc.fp, nil)

		fresh := runArenaCell(t, tc.kind, tc.fp, arena.New(0))
		if !reflect.DeepEqual(heap, fresh) {
			t.Errorf("%v/%v: fresh-arena samples diverge from heap samples", tc.kind, tc.fp)
		}

		// Worker-style reuse: one arena, two cells back to back. The
		// second cell starts on recycled slabs whose bytes are the first
		// cell's garbage.
		shared := arena.New(0)
		runArenaCell(t, tc.kind, tc.fp, shared)
		reused := runArenaCell(t, tc.kind, tc.fp, shared)
		if !reflect.DeepEqual(heap, reused) {
			t.Errorf("%v/%v: reused-arena samples diverge from heap samples", tc.kind, tc.fp)
		}
	}
}

// TestArenaPoisonedRunEquivalence re-runs the matrix on a poisoning
// arena, which scribbles 0xA5 over every recycled byte at Reset. A
// use-after-reset read — a parse buffer, a retransmitted payload, a
// frame header held across runs — surfaces as a sample divergence (or a
// hard failure) instead of silently reading stale-but-plausible bytes.
func TestArenaPoisonedRunEquivalence(t *testing.T) {
	for _, tc := range arenaEquivCases {
		heap := runArenaCell(t, tc.kind, tc.fp, nil)

		poisoned := arena.New(0)
		poisoned.SetPoison(true)
		runArenaCell(t, tc.kind, tc.fp, poisoned) // dirty the slabs first
		got := runArenaCell(t, tc.kind, tc.fp, poisoned)
		if !reflect.DeepEqual(heap, got) {
			t.Errorf("%v/%v: poisoned-arena samples diverge — some buffer is read after its epoch ended", tc.kind, tc.fp)
		}
	}
}

// abortCell is a cell that fails mid-run: at base seed 0 the burstywifi
// Flash POST / O (U) cell of a 50-run study times out on run 44, leaving
// connections, timers and in-flight frames behind on its testbed.
func abortCell(t *testing.T) Config {
	t.Helper()
	opts := StudyOptions{Runs: 50}
	for _, s := range methods.Compared() {
		opts.Methods = append(opts.Methods, s.Kind)
	}
	opts.Profiles = browser.Profiles()
	opts.Testbed.Faults = faults.BurstyWiFi
	for mi, k := range opts.Methods {
		for pi, p := range opts.Profiles {
			if k == methods.FlashPost && p.Label() == "O (U)" {
				cfg, ok := CellConfig(&opts, mi, pi)
				if !ok {
					t.Fatal("Flash POST / O (U) is not runnable")
				}
				return cfg
			}
		}
	}
	t.Fatal("Flash POST / O (U) not in the matrix")
	return Config{}
}

// TestReusedTestbedEquivalence is the determinism contract of testbed
// reuse: one testbed (and one poisoned arena) carried through every cell
// of the arena matrix in shuffled order, with an aborted cell in between,
// must produce exactly what a fresh testbed per cell produces — the same
// samples, and the same failure for the aborting cell. Any divergence
// means Reset left state behind that New would not have built.
func TestReusedTestbedEquivalence(t *testing.T) {
	type cell struct {
		cfg   Config
		want  []Sample
		err   string
		state string
	}
	var cells []cell
	for _, tc := range arenaEquivCases {
		cfg := Config{
			Method:  tc.kind,
			Profile: browser.Lookup(browser.Chrome, browser.Windows),
			Timing:  browser.NanoTime,
			Runs:    6,
			Gap:     time.Second,
		}
		cfg.Testbed.Seed = 42
		cfg.Testbed.Faults = tc.fp
		cells = append(cells, cell{cfg: cfg})
	}
	cells = append(cells, cell{cfg: abortCell(t)})
	for i := range cells {
		fresh := new(testbed.Testbed)
		exp, err := RunOn(context.Background(), fresh, cells[i].cfg)
		switch {
		case err != nil:
			cells[i].err = err.Error()
		default:
			cells[i].want = exp.Samples
		}
		cells[i].state = testbedState(t, fresh)
	}
	if last := cells[len(cells)-1]; !strings.Contains(last.err, "run 44") {
		t.Fatalf("abort cell: err = %q, want a failure on run 44", last.err)
	}

	poisoned := arena.New(0)
	poisoned.SetPoison(true)
	tb := new(testbed.Testbed)
	rng := rand.New(rand.NewSource(3))
	for pass := 0; pass < 3; pass++ {
		// Every pass visits every cell once, in a fresh order, so each
		// cell follows the aborting cell on some pass.
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			cfg := c.cfg
			cfg.Testbed.Arena = poisoned
			exp, err := RunOn(context.Background(), tb, cfg)
			if got := testbedState(t, tb); got != c.state {
				t.Errorf("pass %d %v/%v: testbed state after the cell diverges from a fresh testbed's:\n got %s\nwant %s",
					pass, cfg.Method, cfg.Testbed.Faults, got, c.state)
			}
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Errorf("pass %d %v/%v: err = %v, want %q", pass, cfg.Method, cfg.Testbed.Faults, err, c.err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("pass %d %v/%v: %v", pass, cfg.Method, cfg.Testbed.Faults, err)
			}
			if !reflect.DeepEqual(exp.Samples, c.want) {
				t.Errorf("pass %d %v/%v: samples on the reused testbed diverge from a fresh testbed", pass, cfg.Method, cfg.Testbed.Faults)
			}
		}
	}
}

// testbedState fingerprints what a cell leaves on its testbed beyond the
// samples: the last run's capture bytes (ports, IP IDs, sequence
// numbers), the clock and event counters, and the stacks' counters. It
// reads the UDP port allocator through NextUDPPort, which advances it;
// the next cell's Reset rewinds it anyway.
func testbedState(t *testing.T, tb *testbed.Testbed) string {
	t.Helper()
	var pcap bytes.Buffer
	if _, err := tb.Cap.WriteTo(&pcap); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(pcap.Bytes())
	return fmt.Sprintf("pcap=%x now=%v fired=%d pending=%d client=%d/%d server=%d/%d dropped=%d udp=%d",
		sum[:8], tb.Sim.Now(), tb.Sim.Fired(), tb.Sim.Pending(),
		tb.Client.SegmentsSent, tb.Client.SegmentsRetransmitted,
		tb.Server.SegmentsSent, tb.Server.SegmentsRetransmitted,
		tb.ServerLink.Dropped, tb.NextUDPPort())
}

// TestReusedTestbedStudyEquivalence: a study whose workers reuse their
// testbeds exports the same bytes as one cell per fresh testbed.
func TestReusedTestbedStudyEquivalence(t *testing.T) {
	opts := StudyOptions{Runs: 5, Gap: time.Second, BaseSeed: 9, Workers: 1}
	opts.Testbed.Faults = faults.Lossy1pct
	st, err := RunStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := st.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	for i := range st.Cells {
		c := &st.Cells[i]
		if c.Skipped {
			continue
		}
		exp, err := Run(c.Exp.Config)
		if err != nil {
			t.Fatal(err)
		}
		c.Exp = exp
	}
	if err := st.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("study on reused testbeds exports differently from fresh testbeds")
	}
}
