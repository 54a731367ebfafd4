package net_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"ballista/internal/chaos"
	"ballista/internal/sim/net"
)

// injFaulter adapts a chaos injector session to the substrate's Faulter
// interface the same way sim/kern does.
type injFaulter struct{ in *chaos.Injector }

func (f injFaulter) FaultAt(op, site string) (string, uint64, bool) {
	flt, ok := f.in.Fault(chaos.Op(op), site)
	return flt.Kind, flt.StallTicks, ok
}

// pair builds a connected stream client/server pair on a fresh or given
// network.
func pair(t *testing.T, n *net.Network) (client, server *net.Socket) {
	t.Helper()
	l := n.NewSocket(net.Stream)
	if err := l.Bind(0); err != nil {
		t.Fatalf("listener bind: %v", err)
	}
	if err := l.Listen(4); err != nil {
		t.Fatalf("listen: %v", err)
	}
	c := n.NewSocket(net.Stream)
	if err := c.Connect(l.LocalPort); err != nil {
		t.Fatalf("connect: %v", err)
	}
	s, err := l.Accept()
	if err != nil || s == nil {
		t.Fatalf("accept: %v, %v", s, err)
	}
	return c, s
}

func TestStreamRoundTrip(t *testing.T) {
	n := net.New(nil)
	c, s := pair(t, n)

	if sent, err := c.Send([]byte("ping")); err != nil || sent != 4 {
		t.Fatalf("send = %d, %v", sent, err)
	}
	data, wb, err := s.Recv(64)
	if err != nil || wb || string(data) != "ping" {
		t.Fatalf("recv = %q wb=%v err=%v", data, wb, err)
	}
	if sent, err := s.Send([]byte("pong")); err != nil || sent != 4 {
		t.Fatalf("reply send = %d, %v", sent, err)
	}
	data, _, _ = c.Recv(2) // partial read
	if string(data) != "po" {
		t.Fatalf("partial recv = %q", data)
	}
	data, _, _ = c.Recv(64)
	if string(data) != "ng" {
		t.Fatalf("tail recv = %q", data)
	}
	// Empty buffer + live peer: would block.
	if _, wb, _ := c.Recv(1); !wb {
		t.Error("recv on empty buffer with live peer should block")
	}
	// Peer closes cleanly: orderly EOF.
	s.Close()
	data, wb, err = c.Recv(1)
	if err != nil || wb || data == nil || len(data) != 0 {
		t.Errorf("recv after peer close = %v wb=%v err=%v, want EOF", data, wb, err)
	}
}

func TestStreamBoundedBuffer(t *testing.T) {
	n := net.New(nil)
	c, s := pair(t, n)
	s.RecvCap = 8
	if sent, err := c.Send(bytes.Repeat([]byte("x"), 20)); err != nil || sent != 8 {
		t.Fatalf("send into 8-byte window = %d, %v (want short write of 8)", sent, err)
	}
	if sent, err := c.Send([]byte("y")); err != nil || sent != 0 {
		t.Fatalf("send into full window = %d, %v (want 0-byte write)", sent, err)
	}
}

func TestDatagram(t *testing.T) {
	n := net.New(nil)
	a := n.NewSocket(net.Dgram)
	b := n.NewSocket(net.Dgram)
	if err := a.Bind(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(b.LocalPort); err != nil {
		t.Fatalf("dgram connect: %v", err)
	}
	if _, err := a.Send([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	// Message boundaries: a short recv truncates and discards the rest.
	msg, wb, err := b.Recv(5)
	if err != nil || wb || string(msg) != "hello" {
		t.Fatalf("dgram recv = %q wb=%v err=%v", msg, wb, err)
	}
	if _, wb, _ := b.Recv(64); !wb {
		t.Error("drained dgram socket should block, not re-deliver the tail")
	}
	// Send to a port with no endpoint: silent success (UDP loopback).
	if err := b.Connect(47000); err != nil {
		t.Fatal(err)
	}
	if sent, err := b.Send([]byte("void")); err != nil || sent != 4 {
		t.Errorf("unroutable dgram send = %d, %v (want silent success)", sent, err)
	}
}

func TestConnectRefusedAndBacklog(t *testing.T) {
	n := net.New(nil)
	if err := n.NewSocket(net.Stream).Connect(47000); !errors.Is(err, net.ErrRefused) {
		t.Errorf("connect to unserved port = %v, want ErrRefused", err)
	}
	l := n.NewSocket(net.Stream)
	if err := l.Bind(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	if err := n.NewSocket(net.Stream).Connect(l.LocalPort); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	if err := n.NewSocket(net.Stream).Connect(l.LocalPort); !errors.Is(err, net.ErrRefused) {
		t.Errorf("connect against full backlog = %v, want ErrRefused", err)
	}
}

func TestBindConflictsAndEphemeral(t *testing.T) {
	n := net.New(nil)
	a := n.NewSocket(net.Stream)
	if err := a.Bind(50000); err != nil {
		t.Fatal(err)
	}
	if err := n.NewSocket(net.Stream).Bind(50000); !errors.Is(err, net.ErrInUse) {
		t.Errorf("double bind = %v, want ErrInUse", err)
	}
	b := n.NewSocket(net.Stream)
	cq := n.NewSocket(net.Stream)
	if err := b.Bind(0); err != nil {
		t.Fatal(err)
	}
	if err := cq.Bind(0); err != nil {
		t.Fatal(err)
	}
	if b.LocalPort == cq.LocalPort || b.LocalPort == 0 {
		t.Errorf("ephemeral ports collide: %d %d", b.LocalPort, cq.LocalPort)
	}
	// A closed socket's port is reclaimable.
	p := b.LocalPort
	b.Close()
	d := n.NewSocket(net.Stream)
	if err := d.Bind(p); err != nil {
		t.Errorf("rebinding a released port: %v", err)
	}
}

func TestShutdownSemantics(t *testing.T) {
	n := net.New(nil)
	c, s := pair(t, n)
	if err := c.Shutdown(net.ShutSend); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send([]byte("x")); !errors.Is(err, net.ErrShutdown) {
		t.Errorf("send after SHUT_WR = %v, want ErrShutdown", err)
	}
	// The peer reads EOF once the send direction is down.
	if data, wb, err := s.Recv(1); err != nil || wb || len(data) != 0 {
		t.Errorf("peer recv after SHUT_WR = %v wb=%v err=%v, want EOF", data, wb, err)
	}
	if err := s.Shutdown(net.ShutRecv); err != nil {
		t.Fatal(err)
	}
	if data, _, err := s.Recv(1); err != nil || data == nil || len(data) != 0 {
		t.Errorf("recv after SHUT_RD = %v, %v, want EOF", data, err)
	}
}

func TestCloseWithUnreadDataResetsPeer(t *testing.T) {
	n := net.New(nil)
	c, s := pair(t, n)
	if _, err := c.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// s closes with "doomed" unread: abortive RST to c.
	s.Close()
	if _, err := c.Send([]byte("x")); !errors.Is(err, net.ErrReset) {
		t.Errorf("send after abortive close = %v, want ErrReset", err)
	}
}

func TestLeakGaugeAndReset(t *testing.T) {
	n := net.New(nil)
	c, s := pair(t, n) // listener + client + accepted server = 3 opened
	if n.Live() != 3 {
		t.Errorf("live = %d, want 3 (listener, client, accepted server)", n.Live())
	}
	c.Close()
	s.Close()
	if n.Live() != 1 {
		t.Errorf("live after closing the pair = %d, want 1", n.Live())
	}
	if !c.Close() == false {
		t.Error("double close should report false")
	}
	opened := n.Opened()
	n.Reset()
	if n.Opened() != opened || n.Live() != 1 {
		t.Errorf("Reset must keep the campaign counters: opened %d→%d live %d",
			opened, n.Opened(), n.Live())
	}
	if len(n.Schedule()) != 0 {
		t.Error("Reset must clear the delivery schedule")
	}
	// The leaked listener's port is released by Reset.
	l2 := n.NewSocket(net.Stream)
	if err := l2.Bind(49152); err != nil {
		t.Errorf("first ephemeral port still pinned after Reset: %v", err)
	}
}

// driveScript runs a fixed operation sequence that exercises every
// delivery chaos site, returning the network's schedule log.
func driveScript(t *testing.T, plan *chaos.Plan) []string {
	t.Helper()
	n := net.New(nil)
	n.SetFaulter(injFaulter{plan.NewInjector(nil)})
	for round := 0; round < 20; round++ {
		l := n.NewSocket(net.Stream)
		if l == nil {
			continue
		}
		if l.Bind(0) != nil || l.Listen(2) != nil {
			continue
		}
		c := n.NewSocket(net.Stream)
		if c == nil || c.Connect(l.LocalPort) != nil {
			continue
		}
		s, _ := l.Accept()
		for i := 0; i < 5; i++ {
			_, _ = c.Send(bytes.Repeat([]byte{byte(round)}, 64+i))
			if s != nil {
				_, _, _ = s.Recv(256)
			}
		}
		c.Close()
		if s != nil {
			s.Close()
		}
		l.Close()
	}
	return append([]string(nil), n.Schedule()...)
}

// TestChaosScheduleDeterminism: the same seeded simnet plan replayed
// against the same operation sequence yields a byte-identical delivery
// schedule, including when eight replicas run concurrently — per-machine
// fault streams depend only on the plan, never on scheduling.
func TestChaosScheduleDeterminism(t *testing.T) {
	plan, err := chaos.Preset("simnet", 7)
	if err != nil {
		t.Fatal(err)
	}
	golden := driveScript(t, plan)
	if len(golden) == 0 {
		t.Fatal("script produced an empty schedule; chaos sites never exercised")
	}
	var hasFault bool
	for _, line := range golden {
		if strings.Contains(line, "drop") || strings.Contains(line, "delay") ||
			strings.Contains(line, "reset") {
			hasFault = true
			break
		}
	}
	if !hasFault {
		t.Error("seed 7 simnet plan fired no delivery fault in 100 sends; schedule cannot witness chaos determinism")
	}

	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = driveScript(t, plan)
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if strings.Join(g, "\n") != strings.Join(golden, "\n") {
			t.Errorf("worker %d schedule diverges from the sequential run", w)
		}
	}
}

// TestFleetChaosIsolation: arming the simnet.* substrate sites must not
// move the fleet-transport net.* decision stream — the per-(op,site)
// fault streams are independent, so pre-sockets fleet plans replay
// unchanged when a network is also under chaos.
func TestFleetChaosIsolation(t *testing.T) {
	plan := &chaos.Plan{Seed: 11, Rules: []chaos.Rule{
		{Op: chaos.OpNetDrop, RatePerMille: 300, Transient: true},
		{Op: chaos.OpSimNetDrop, RatePerMille: 200},
		{Op: chaos.OpSimNetReset, RatePerMille: 100},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}

	fleetPattern := func(interleave bool) []bool {
		in := plan.NewInjector(nil)
		var n *net.Network
		var c *net.Socket
		if interleave {
			n = net.New(nil)
			n.SetFaulter(injFaulter{in})
			l := n.NewSocket(net.Stream)
			if l.Bind(0) != nil || l.Listen(4) != nil {
				t.Fatal("listener setup")
			}
			c = n.NewSocket(net.Stream)
			if err := c.Connect(l.LocalPort); err != nil {
				t.Fatalf("connect: %v", err)
			}
		}
		var out []bool
		for i := 0; i < 200; i++ {
			if interleave {
				// Pull substrate decisions between every fleet decision.
				_, _ = c.Send([]byte("interference"))
			}
			_, fired := in.Fault(chaos.OpNetDrop, "upload")
			out = append(out, fired)
		}
		return out
	}

	clean := fleetPattern(false)
	mixed := fleetPattern(true)
	for i := range clean {
		if clean[i] != mixed[i] {
			t.Fatalf("fleet net.drop decision %d moved when simnet sites were armed (%v vs %v)",
				i, clean[i], mixed[i])
		}
	}
}

// TestResetMatchesFresh: a Reset after bound, listening and connected
// sockets leaves a network that behaves like net.New.  The same script
// run on both yields the same ports, schedule and counter increments;
// only the campaign counters carried across the Reset differ.
func TestResetMatchesFresh(t *testing.T) {
	used := net.New(nil)
	c, _ := pair(t, used)
	if _, err := c.Send([]byte("in flight")); err != nil {
		t.Fatal(err)
	}
	d := used.NewSocket(net.Dgram)
	if err := d.Bind(7000); err != nil {
		t.Fatal(err)
	}
	if len(used.Schedule()) == 0 {
		t.Fatal("precondition: the script logged no delivery")
	}
	used.Reset()
	if len(used.Schedule()) != 0 {
		t.Errorf("schedule after Reset = %q, want empty", used.Schedule())
	}
	live, opened := used.Live(), used.Opened()

	type observed struct {
		ports          [4]uint16
		schedule       string
		dLive, dOpened int
	}
	observe := func(n *net.Network, live int, opened uint64) observed {
		c, s := pair(t, n)
		if _, err := c.Send([]byte("probe")); err != nil {
			t.Fatal(err)
		}
		d := n.NewSocket(net.Dgram)
		if err := d.Bind(7000); err != nil {
			t.Errorf("port 7000 still pinned: %v", err)
		}
		e := n.NewSocket(net.Dgram)
		if err := e.Bind(0); err != nil {
			t.Fatal(err)
		}
		return observed{
			ports:    [4]uint16{c.LocalPort, s.LocalPort, d.LocalPort, e.LocalPort},
			schedule: strings.Join(n.Schedule(), "\n"),
			dLive:    n.Live() - live,
			dOpened:  int(n.Opened() - opened),
		}
	}
	got := observe(used, live, opened)
	want := observe(net.New(nil), 0, 0)
	if got != want {
		t.Errorf("after Reset:\n got %+v\nwant %+v (net.New)", got, want)
	}
}

// TestResetPristineAllocs gates the per-case cost: resetting a network
// that is already pristine allocates nothing.
func TestResetPristineAllocs(t *testing.T) {
	n := net.New(nil)
	if a := testing.AllocsPerRun(100, n.Reset); a != 0 {
		t.Errorf("pristine Reset allocates %.1f times, want 0", a)
	}
}
