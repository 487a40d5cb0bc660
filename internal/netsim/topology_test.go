package netsim

import (
	"net/netip"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/eventsim"
)

// buildPair wires nicA <-> switch <-> nicB over 100 Mbps links.
func buildPair(sim *eventsim.Simulator, prop, fwd time.Duration) (*NIC, *NIC) {
	a := NewNIC(sim, "eth0", macA, ipA)
	b := NewNIC(sim, "eth0", macB, ipB)
	sw := NewSwitch(sim, fwd)
	la := NewLink(sim, 100_000_000, prop)
	lb := NewLink(sim, 100_000_000, prop)
	a.Connect(la)
	sw.Connect(la)
	b.Connect(lb)
	sw.Connect(lb)
	return a, b
}

func TestLinkDelivery(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 100_000_000, 10*time.Microsecond)
	a.Connect(l)
	b.Connect(l)

	var gotAt time.Duration
	var got []byte
	b.SetHandler(func(f []byte) { gotAt = sim.Now(); got = f })

	frame := make([]byte, 1250) // 10000 bits -> 100us at 100 Mbps
	a.Send(frame)
	sim.Run()

	want := 100*time.Microsecond + 10*time.Microsecond
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
	if len(got) != 1250 {
		t.Fatalf("frame length = %d", len(got))
	}
}

func TestLinkSerializationQueuing(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 100_000_000, 0)
	a.Connect(l)
	b.Connect(l)

	var arrivals []time.Duration
	b.SetHandler(func([]byte) { arrivals = append(arrivals, sim.Now()) })

	// Two back-to-back 1250-byte frames: second must queue behind first.
	a.Send(make([]byte, 1250))
	a.Send(make([]byte, 1250))
	sim.Run()

	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 100*time.Microsecond || arrivals[1] != 200*time.Microsecond {
		t.Fatalf("arrivals = %v, want [100us 200us]", arrivals)
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 0, time.Millisecond)
	a.Connect(l)
	b.Connect(l)
	var at time.Duration
	b.SetHandler(func([]byte) { at = sim.Now() })
	a.Send(make([]byte, 1_000_000))
	sim.Run()
	if at != time.Millisecond {
		t.Fatalf("delivered at %v, want 1ms (no serialization delay)", at)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 100_000_000, 0)
	a.Connect(l)
	b.Connect(l)
	var atA, atB time.Duration
	a.SetHandler(func([]byte) { atA = sim.Now() })
	b.SetHandler(func([]byte) { atB = sim.Now() })
	// Simultaneous sends in both directions must not queue behind each other.
	a.Send(make([]byte, 1250))
	b.Send(make([]byte, 1250))
	sim.Run()
	if atA != 100*time.Microsecond || atB != 100*time.Microsecond {
		t.Fatalf("full duplex broken: a<-%v b<-%v", atA, atB)
	}
}

func TestSwitchFloodsThenLearns(t *testing.T) {
	sim := eventsim.New(1)
	// Three NICs on one switch.
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	macC := MAC{0x02, 0, 0, 0, 0, 0x0c}
	c := NewNIC(sim, "c", macC, netip.MustParseAddr("192.168.1.30"))
	sw := NewSwitch(sim, 0)
	for _, n := range []*NIC{a, b, c} {
		l := NewLink(sim, 0, 0)
		n.Connect(l)
		sw.Connect(l)
	}
	bGot, cGot := 0, 0
	b.SetHandler(func([]byte) { bGot++ })
	c.SetHandler(func([]byte) { cGot++ })

	// Unknown destination: floods to both b and c.
	eth := &Ethernet{Dst: macB, Src: macA, EtherType: EtherTypeIPv4}
	a.Send(eth.Serialize(nil))
	sim.Run()
	if bGot != 1 || cGot != 1 {
		t.Fatalf("flood: b=%d c=%d, want 1,1", bGot, cGot)
	}

	// b replies; switch learns macB and macA. Next a->b frame is unicast.
	reply := &Ethernet{Dst: macA, Src: macB, EtherType: EtherTypeIPv4}
	b.Send(reply.Serialize(nil))
	sim.Run()
	a.Send(eth.Serialize(nil))
	sim.Run()
	if bGot != 2 || cGot != 1 {
		t.Fatalf("learned: b=%d c=%d, want 2,1", bGot, cGot)
	}
}

func TestSwitchForwardingDelay(t *testing.T) {
	sim := eventsim.New(1)
	a, b := buildPair(sim, 0, 5*time.Microsecond)
	var at time.Duration
	b.SetHandler(func([]byte) { at = sim.Now() })
	frame := BuildTCP(macA, macB, ipA, ipB, 1, &TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}, nil)
	a.Send(frame)
	sim.Run()
	// two link serializations (54B frame => 4.32us each) + 5us switch delay
	tx := time.Duration(int64(len(frame)) * 8 * int64(time.Second) / 100_000_000)
	want := 2*tx + 5*time.Microsecond
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSwitchDropsRuntFrames(t *testing.T) {
	sim := eventsim.New(1)
	a, b := buildPair(sim, 0, 0)
	got := 0
	b.SetHandler(func([]byte) { got++ })
	a.Send([]byte{1, 2, 3}) // runt: shorter than an Ethernet header
	sim.Run()
	if got != 0 {
		t.Fatalf("runt frame was forwarded")
	}
}

func TestTapsSeeBothDirections(t *testing.T) {
	sim := eventsim.New(1)
	a, b := buildPair(sim, 0, 0)
	var dirs []Direction
	a.AddTap(func(_ []byte, _ time.Duration, d Direction) { dirs = append(dirs, d) })
	b.SetHandler(func(f []byte) {
		b.Send(BuildTCP(macB, macA, ipB, ipA, 1, &TCP{SrcPort: 2, DstPort: 1, Flags: FlagACK}, nil))
	})
	a.Send(BuildTCP(macA, macB, ipA, ipB, 1, &TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}, nil))
	sim.Run()
	if len(dirs) != 2 || dirs[0] != DirOut || dirs[1] != DirIn {
		t.Fatalf("tap directions = %v, want [out in]", dirs)
	}
}

func TestTapTimestampBeforeWireDelay(t *testing.T) {
	sim := eventsim.New(1)
	a, _ := buildPair(sim, time.Millisecond, time.Millisecond)
	var outAt time.Duration = -1
	a.AddTap(func(_ []byte, at time.Duration, d Direction) {
		if d == DirOut {
			outAt = at
		}
	})
	sim.Advance(7 * time.Millisecond)
	a.Send(BuildTCP(macA, macB, ipA, ipB, 1, &TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}, nil))
	sim.Run()
	if outAt != 7*time.Millisecond {
		t.Fatalf("out tap at %v, want 7ms (capture stamps at send, not arrival)", outAt)
	}
}

func TestDirectionString(t *testing.T) {
	if DirOut.String() != "out" || DirIn.String() != "in" {
		t.Fatal("Direction.String broken")
	}
}

func TestSendOnDisconnectedNICPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim := eventsim.New(1)
	NewNIC(sim, "x", macA, ipA).Send([]byte{1})
}

func TestLinkThirdAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim := eventsim.New(1)
	l := NewLink(sim, 0, 0)
	l.Attach(NewNIC(sim, "1", macA, ipA))
	l.Attach(NewNIC(sim, "2", macB, ipB))
	l.Attach(NewNIC(sim, "3", MAC{}, ipA))
}

// TestLinkResetIdlesQueue: after Reset (with the simulator reset too) a
// frame serializes from an idle wire, as on a new link, and the drop
// counter starts from zero.
func TestLinkResetIdlesQueue(t *testing.T) {
	sim := eventsim.New(1)
	a := NewNIC(sim, "a", macA, ipA)
	b := NewNIC(sim, "b", macB, ipB)
	l := NewLink(sim, 100_000_000, 0)
	a.Connect(l)
	b.Connect(l)
	var arrivals []time.Duration
	b.SetHandler(func([]byte) { arrivals = append(arrivals, sim.Now()) })

	for i := 0; i < 5; i++ {
		a.Send(make([]byte, 1250)) // 100 µs each: the queue runs 500 µs deep
	}
	l.Dropped = 3
	sim.Reset(1)
	l.Reset()
	a.Send(make([]byte, 1250))
	sim.Run()
	if len(arrivals) != 1 || arrivals[0] != 100*time.Microsecond {
		t.Fatalf("arrivals after Reset = %v, want [100µs]", arrivals)
	}
	if l.Dropped != 0 {
		t.Fatalf("Dropped = %d after Reset", l.Dropped)
	}
}

// TestSwitchResetForgetsTable: a reset switch has learned nothing.
func TestSwitchResetForgetsTable(t *testing.T) {
	sim := eventsim.New(1)
	sw := NewSwitch(sim, 0)
	a := NewNIC(sim, "a", macA, ipA)
	l := NewLink(sim, 0, 0)
	a.Connect(l)
	sw.Connect(l)
	a.Send(make([]byte, ethernetHeaderLen))
	sim.Run()
	if len(sw.table) == 0 {
		t.Fatal("setup: switch learned nothing")
	}
	sw.Reset()
	if len(sw.table) != 0 {
		t.Fatalf("table after Reset = %v", sw.table)
	}
}
