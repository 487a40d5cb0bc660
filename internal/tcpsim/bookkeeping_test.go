package tcpsim

import (
	"net/netip"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
)

// scanQuiescent and scanFreePort are the map scans the port counts and
// the open-conn list replaced: the reference answers.
func scanQuiescent(s *Stack) bool {
	for _, c := range s.conns {
		if c.sndUna != c.sndNxt || len(c.sendQ) > 0 || len(c.retxQ) > 0 || len(c.oo) > 0 {
			return false
		}
	}
	return true
}

func scanPortBusy(s *Stack, p uint16) bool {
	for t := range s.conns {
		if t.localPort == p {
			return true
		}
	}
	return false
}

// checkBookkeeping cross-checks the O(1) structures against the conns map.
func checkBookkeeping(t *testing.T, s *Stack) {
	t.Helper()
	if len(s.open) != len(s.conns) {
		t.Fatalf("open list holds %d conns, map %d", len(s.open), len(s.conns))
	}
	for i, c := range s.open {
		if c.openIdx != i || s.conns[c.tuple] != c {
			t.Fatalf("open[%d] = %v (idx %d) is not the mapped conn", i, c.tuple, c.openIdx)
		}
	}
	n := 0
	for p, k := range s.portUse {
		if k <= 0 || !scanPortBusy(s, p) {
			t.Fatalf("portUse[%d] = %d, but the scan says busy=%v", p, k, scanPortBusy(s, p))
		}
		n += k
	}
	if n != len(s.conns) {
		t.Fatalf("portUse totals %d, map holds %d", n, len(s.conns))
	}
	if got, want := s.Quiescent(), scanQuiescent(s); got != want {
		t.Fatalf("Quiescent = %v, scan says %v", got, want)
	}
}

// TestConnBookkeepingMatchesScan opens connections that stay open the
// way a probe cell's do, closes some in arbitrary order, and wraps the
// ephemeral range so ports still held are skipped: the port chosen and
// the quiescence answer must equal the full scans at every step.
func TestConnBookkeepingMatchesScan(t *testing.T) {
	sim := eventsim.New(5)
	client, server := pair(t, sim, 50*time.Microsecond)
	peers := map[uint16]*Conn{} // server side, by client port
	server.Listen(80, func(c *Conn) {
		peers[c.RemotePort()] = c
		c.OnData = func(b []byte) { c.Send(b) }
	})

	var conns []*Conn
	dial := func() {
		t.Helper()
		// The port the old scan would have chosen from the same start.
		want := client.nextEphemeral
		for scanPortBusy(client, want) {
			if want++; want < 49152 {
				want = 49152
			}
		}
		c, err := client.Dial(ipB, 80)
		if err != nil {
			t.Fatal(err)
		}
		if c.LocalPort() != want {
			t.Fatalf("Dial chose port %d, scan chooses %d", c.LocalPort(), want)
		}
		conns = append(conns, c)
		checkBookkeeping(t, client)
	}
	for i := 0; i < 40; i++ {
		dial()
		if i%3 == 0 {
			conns[len(conns)-1].OnEstablished = func() {}
			sim.Advance(time.Millisecond)
			_ = conns[len(conns)-1].Send([]byte("x"))
			checkBookkeeping(t, client)
			checkBookkeeping(t, server)
		}
	}
	sim.Advance(time.Second)
	checkBookkeeping(t, client)
	checkBookkeeping(t, server)
	// End every third conn, out of dial order: alternately a RST, and an
	// orderly close from both ends.
	for i := len(conns) - 1; i >= 0; i -= 3 {
		if i%2 == 0 {
			conns[i].Abort()
			continue
		}
		conns[i].Close()
		peers[conns[i].LocalPort()].Close()
	}
	sim.Advance(time.Second)
	checkBookkeeping(t, client)
	checkBookkeeping(t, server)
	if len(client.conns) >= 40 {
		t.Fatalf("closes left %d conns open", len(client.conns))
	}
	// Wrap the allocator to just below the held ports: Dial must skip
	// every port still in use.
	client.nextEphemeral = 65535
	for i := 0; i < 30; i++ {
		dial()
	}
	sim.Advance(time.Second)
	checkBookkeeping(t, client)
	checkBookkeeping(t, server)
}

// TestStackResetEqualsNew: a reset stack dials from the first ephemeral
// port again, with its counters, maps and hooks as NewStack leaves them,
// and reuses its connection records instead of allocating new ones.
func TestStackResetEqualsNew(t *testing.T) {
	sim := eventsim.New(1)
	client, server := pair(t, sim, 50*time.Microsecond)
	server.Listen(80, func(*Conn) {})
	client.ListenUDP(5000, func(netip.Addr, uint16, []byte) {})
	for i := 0; i < 40; i++ {
		if _, err := client.Dial(ipB, 80); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntil(10 * time.Microsecond) // leave handshakes mid-flight
	first := client.conns[fourTuple{localPort: 49152, remotePort: 80, remote: ipB}]

	resolve := client.Resolve
	sim.Reset(1)
	client.Reset()
	server.Reset()
	if len(client.conns)+len(client.listeners)+len(client.udpHandlers)+len(client.portUse)+len(client.open) != 0 ||
		len(server.conns)+len(server.listeners) != 0 {
		t.Fatal("Reset left connections, listeners or bindings behind")
	}
	if client.SegmentsSent != 0 || client.ipID != 0 || client.nextEphemeral != 49152 ||
		client.Resolve != nil || client.Trace != nil || client.Metrics != nil || client.Arena != nil {
		t.Fatal("Reset left counters or hooks behind")
	}
	client.Resolve, server.Resolve = resolve, resolve
	server.Listen(80, func(*Conn) {})
	c, err := client.Dial(ipB, 80)
	if err != nil {
		t.Fatal(err)
	}
	if c != first || c.LocalPort() != 49152 || c.State() != StateSynSent {
		t.Fatalf("first dial after Reset: record reused=%v port %d state %v", c == first, c.LocalPort(), c.State())
	}
	established := false
	c.OnEstablished = func() { established = true }
	sim.Run()
	if !established {
		t.Fatal("connection on a reset stack never established")
	}
}
