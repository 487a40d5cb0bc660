package testbed

import (
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/httpsim"
)

// probeRTT measures one GET /probe exchange on tb: the client-observed
// RTT and the local port the connection used.
func probeRTT(t *testing.T, tb *Testbed) (time.Duration, uint16) {
	t.Helper()
	c, err := tb.Client.Dial(tb.ServerAddr, HTTPPort)
	if err != nil {
		t.Fatal(err)
	}
	cc := httpsim.NewClientConn(c)
	var sent, got time.Duration
	c.OnEstablished = func() {
		sent = tb.Sim.Now()
		cc.RoundTrip(&httpsim.Request{Method: "GET", Target: "/probe"}, func(*httpsim.Response) { got = tb.Sim.Now() })
	}
	tb.Sim.RunUntil(10 * time.Second)
	if got == 0 {
		t.Fatal("probe never answered")
	}
	return got - sent, c.LocalPort()
}

// TestResetEqualsNew: a testbed reset for a configuration behaves and
// reads like New of that configuration, whatever the previous
// configuration and use left behind (impairment, loss, delays, open
// connections, captured frames, served requests).
func TestResetEqualsNew(t *testing.T) {
	cfgs := []Config{
		{Seed: 3},
		{Seed: 4, ServerDelay: 20 * time.Millisecond, LossRate: 0.2, ServerParseCost: time.Millisecond, Faults: faults.Congested},
		{Seed: 3, Faults: faults.Lossy1pct},
	}
	tb := New(Config{Seed: 99, Faults: faults.BurstyWiFi, ServerDelay: time.Millisecond})
	probeRTT(t, tb)
	for _, cfg := range cfgs {
		fresh := New(cfg)
		wantRTT, wantPort := probeRTT(t, fresh)

		tb.Reset(cfg)
		if tb.Sim.Now() != 0 || tb.Sim.Pending() != 0 || len(tb.Cap.Records()) != 0 || tb.HTTP.Requests != 0 {
			t.Fatalf("%+v: Reset left the clock, queue, capture or request count behind", cfg)
		}
		if tb.RTTBase() != fresh.RTTBase() || tb.ServerNIC.EgressDelay != fresh.ServerNIC.EgressDelay ||
			tb.ServerLink.LossRate != fresh.ServerLink.LossRate || tb.HTTP.ParseCost != fresh.HTTP.ParseCost ||
			(tb.Impair == nil) != (fresh.Impair == nil) || (tb.ServerLink.Impair == nil) != (fresh.ServerLink.Impair == nil) {
			t.Fatalf("%+v: Reset configured the layers differently from New", cfg)
		}
		rtt, port := probeRTT(t, tb)
		if rtt != wantRTT || port != wantPort {
			t.Fatalf("%+v: reset testbed measured %v on port %d, fresh %v on port %d", cfg, rtt, port, wantRTT, wantPort)
		}
		if tb.Sim.Fired() != fresh.Sim.Fired() || len(tb.Cap.Records()) != len(fresh.Cap.Records()) {
			t.Fatalf("%+v: reset testbed fired %d events / captured %d frames, fresh %d / %d", cfg,
				tb.Sim.Fired(), len(tb.Cap.Records()), fresh.Sim.Fired(), len(fresh.Cap.Records()))
		}
	}
}

// TestResetKeepsPrivateArena: with no Config.Arena, Reset keeps using the
// arena the testbed built for itself.
func TestResetKeepsPrivateArena(t *testing.T) {
	tb := New(Config{Seed: 1})
	a := tb.Arena
	tb.Reset(Config{Seed: 2})
	if tb.Arena != a {
		t.Fatal("Reset replaced the private arena")
	}
}
