// Package net implements the deterministic in-machine network beneath
// the Winsock and BSD sockets API surfaces: loopback endpoints with
// stream and datagram semantics, bounded receive buffers, listen/accept
// backlogs, deterministic ephemeral-port allocation, and shutdown /
// linger states.  There is no wire and no goroutine: a send delivers
// synchronously into the peer's buffer, so every observable outcome is
// a pure function of the operation sequence — the same property that
// makes the simulated filesystem's campaigns replayable.
//
// Sockets themselves live in the kernel's handle and descriptor tables
// (kern.Object / kern.FD carry a *Socket payload), so CloseHandle,
// close and DuplicateHandle semantics come for free; this package only
// owns endpoint state and delivery.
//
// Two seeded chaos planes hook in here:
//
//   - net.sock is the scarcity plane: site "sock" models a full machine
//     socket table (NewSocket refused), site "port" a depleted ephemeral
//     range (implicit bind fails).  The scarce sweep builds its "socks"
//     axis from these rules.
//   - simnet.drop / simnet.dupe / simnet.delay / simnet.reset perturb
//     deliveries, reusing the fleet chaos plan shape.  They are distinct
//     ops from the fleet-transport net.* rules, so arming the substrate
//     plane structurally cannot move a fleet client's decision stream.
//
// Every delivery appends one line to the network's schedule log, which
// the determinism oracles byte-compare across worker counts.
package net

import (
	"errors"
	"fmt"
)

// Faulter is the slice of chaos.Injector this package consumes.  It is
// an interface to keep the dependency arrow pointing at chaos only
// through behavior (a nil Faulter injects nothing, mirroring the nil
// *Injector contract).
type Faulter interface {
	FaultAt(op string, site string) (kind string, stallTicks uint64, fired bool)
}

// Domain errors, mapped to WSA codes / errnos by the API layers.
var (
	// ErrInUse: the requested local port is already bound (EADDRINUSE).
	ErrInUse = errors.New("simnet: address in use")
	// ErrNoPorts: the ephemeral-port range is depleted (EADDRNOTAVAIL /
	// WSAENOBUFS) — the net.sock "port" scarcity site.
	ErrNoPorts = errors.New("simnet: ephemeral ports depleted")
	// ErrInvalid: the operation is invalid for the socket's state or
	// kind (EINVAL).
	ErrInvalid = errors.New("simnet: invalid operation for socket state")
	// ErrNotConn: the socket is not connected (ENOTCONN).
	ErrNotConn = errors.New("simnet: socket not connected")
	// ErrIsConn: the socket is already connected (EISCONN).
	ErrIsConn = errors.New("simnet: socket already connected")
	// ErrRefused: no listener at the remote port, or its backlog is full
	// (ECONNREFUSED).
	ErrRefused = errors.New("simnet: connection refused")
	// ErrReset: the connection was reset by the peer or by a
	// simnet.reset fault (ECONNRESET).
	ErrReset = errors.New("simnet: connection reset")
	// ErrShutdown: the direction needed was already shut down (EPIPE on
	// send after SHUT_WR; recv after SHUT_RD reads EOF instead).
	ErrShutdown = errors.New("simnet: direction shut down")
	// ErrClosed: the socket has been closed (EBADF/WSAENOTSOCK paths).
	ErrClosed = errors.New("simnet: socket closed")
)

// SockKind selects stream or datagram semantics.
type SockKind int

// Socket kinds (values match SOCK_STREAM / SOCK_DGRAM).
const (
	Stream SockKind = 1
	Dgram  SockKind = 2
)

// String names the kind.
func (k SockKind) String() string {
	switch k {
	case Stream:
		return "stream"
	case Dgram:
		return "dgram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// SockState is a socket's lifecycle state.
type SockState int

// Socket states.
const (
	StateNew SockState = iota
	StateBound
	StateListening
	StateConnected
	StateReset
	StateClosed
)

// String names the state.
func (s SockState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateBound:
		return "bound"
	case StateListening:
		return "listening"
	case StateConnected:
		return "connected"
	case StateReset:
		return "reset"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Shutdown directions (values match SHUT_RD / SHUT_WR / SHUT_RDWR).
const (
	ShutRecv = 0
	ShutSend = 1
	ShutBoth = 2
)

// DefaultRecvCap bounds a socket's receive buffer; a stream send into a
// full buffer is a short write, matching a zero-window TCP peer.
const DefaultRecvCap = 65536

// DefaultBacklog bounds a listener whose backlog argument was zero.
const DefaultBacklog = 1

// ephemeralBase is the first ephemeral port (the IANA dynamic range).
const ephemeralBase = 49152

// Network is one machine's loopback network: the port table, the
// deterministic ephemeral allocator, delivery counters, and the chaos
// hook.  One Network per kern.Kernel; it survives process teardown the
// way the filesystem does (ports held by leaked sockets stay bound).
type Network struct {
	tick func() uint64

	ports map[uint16]*Socket
	// nextEphemeral advances monotonically; the range wraps once before
	// reporting depletion, so a long campaign reuses freed ports
	// deterministically.
	nextEphemeral uint16

	faulter Faulter

	// Opened / Closed count socket-table entries machine-wide; their
	// difference is the live-socket gauge the scarce leak oracle reads.
	opened, closed uint64

	// schedule is the delivery log: one line per delivery decision, in
	// order.  Byte-identical across runs of the same operation sequence
	// under the same plan — the determinism oracle's artifact.
	schedule []string
	seq      uint64
}

// New creates an empty network.  tick supplies the machine clock for
// delayed deliveries (nil keeps a private counter).
func New(tick func() uint64) *Network {
	if tick == nil {
		var t uint64
		tick = func() uint64 { t++; return t }
	}
	return &Network{tick: tick, ports: make(map[uint16]*Socket), nextEphemeral: ephemeralBase}
}

// SetFaulter attaches (or, with nil, detaches) the chaos session.
func (n *Network) SetFaulter(f Faulter) { n.faulter = f }

// fault consumes one chaos decision point.
func (n *Network) fault(op, site string) (string, uint64, bool) {
	if n.faulter == nil {
		return "", 0, false
	}
	return n.faulter.FaultAt(op, site)
}

// Reset restores pristine per-case network state: the port table
// empties (sockets leaked by a previous test case release their
// bindings), the ephemeral allocator rewinds, and the delivery log
// clears.  The opened/closed counters survive — they describe the
// campaign, not one case — so the leak gauge keeps integrating.  On an
// already pristine network it returns at once, and it never allocates.
func (n *Network) Reset() {
	if len(n.ports) == 0 && n.nextEphemeral == ephemeralBase && len(n.schedule) == 0 && n.seq == 0 {
		return
	}
	clear(n.ports)
	n.nextEphemeral = ephemeralBase
	n.schedule = nil
	n.seq = 0
}

// Live returns the live-socket gauge (opened minus closed).
func (n *Network) Live() int {
	if n.closed > n.opened {
		return 0
	}
	return int(n.opened - n.closed)
}

// Opened returns the cumulative socket-table insertion count.
func (n *Network) Opened() uint64 { return n.opened }

// Schedule returns the delivery log accumulated so far.
func (n *Network) Schedule() []string { return n.schedule }

// logDelivery appends one schedule line.  The line contains only
// plan-determined values (no wall clock, no pointers).
func (n *Network) logDelivery(event string, from, to uint16, bytes int) {
	n.seq++
	n.schedule = append(n.schedule, fmt.Sprintf("%d %s %d->%d %d", n.seq, event, from, to, bytes))
}

// Socket is one endpoint.  All state is owned by the Network's machine
// (one goroutine drives a machine), so there is no locking.
type Socket struct {
	net  *Network
	Kind SockKind

	State      SockState
	LocalPort  uint16
	RemotePort uint16

	// Peer is the connected stream counterpart (nil for datagram
	// sockets, which route per send through the port table).
	Peer *Socket

	// RecvBuf is the bounded stream receive queue; Dgrams the datagram
	// queue (message boundaries preserved).
	RecvBuf  []byte
	Dgrams   [][]byte
	RecvCap  int
	DgramCap int

	// Backlog queues accepted-but-not-yet-Accept()ed connections.
	Backlog    []*Socket
	BacklogMax int

	// ShutRecv / ShutSend record shutdown(2) state per direction.
	ShutRecvFlag bool
	ShutSendFlag bool

	// Linger mirrors SO_LINGER: a close with Linger > 0 advances the
	// machine clock by that many ticks before the port is released.
	Linger uint32
}

// NewSocket allocates a socket-table entry.  Under an armed net.sock
// scarcity rule (site "sock") the table is full and nil is returned —
// the caller's API surface decides whether to report WSAEMFILE/EMFILE
// or, on the 9x stub path, pass the null socket through as success.
func (n *Network) NewSocket(kind SockKind) *Socket {
	if _, _, fired := n.fault("net.sock", "sock"); fired {
		return nil
	}
	n.opened++
	s := &Socket{net: n, Kind: kind, RecvCap: DefaultRecvCap, DgramCap: 64}
	return s
}

// allocEphemeral returns the next free ephemeral port, scanning the
// dynamic range once from the allocator cursor.  Under an armed
// net.sock "port" rule the range is depleted.
func (n *Network) allocEphemeral() (uint16, error) {
	if _, _, fired := n.fault("net.sock", "port"); fired {
		return 0, ErrNoPorts
	}
	for i := 0; i < 1<<16-ephemeralBase; i++ {
		p := n.nextEphemeral
		n.nextEphemeral++
		if n.nextEphemeral == 0 {
			n.nextEphemeral = ephemeralBase
		}
		if _, ok := n.ports[p]; !ok {
			return p, nil
		}
	}
	return 0, ErrNoPorts
}

// Bind assigns the socket's local port; 0 requests an ephemeral port.
func (s *Socket) Bind(port uint16) error {
	if s.State == StateClosed {
		return ErrClosed
	}
	if s.State != StateNew {
		return ErrInvalid
	}
	if port == 0 {
		p, err := s.net.allocEphemeral()
		if err != nil {
			return err
		}
		port = p
	} else if _, ok := s.net.ports[port]; ok {
		return ErrInUse
	}
	s.net.ports[port] = s
	s.LocalPort = port
	s.State = StateBound
	return nil
}

// Listen turns a bound stream socket into a listener.
func (s *Socket) Listen(backlog int) error {
	if s.State == StateClosed {
		return ErrClosed
	}
	if s.Kind != Stream {
		return ErrInvalid
	}
	switch s.State {
	case StateBound:
	case StateListening: // re-listen adjusts the backlog
	default:
		return ErrInvalid
	}
	if backlog <= 0 {
		backlog = DefaultBacklog
	}
	if backlog > 128 {
		backlog = 128
	}
	s.State = StateListening
	s.BacklogMax = backlog
	return nil
}

// Connect attaches the socket to a remote port.  Streams perform the
// synchronous handshake: the listener gets a fresh server-side endpoint
// queued in its backlog (refused when full, exactly like a SYN against
// a saturated accept queue).  Datagram connect just fixes the default
// destination.  An unbound socket binds implicitly to an ephemeral
// port first, so port depletion surfaces here too.
func (s *Socket) Connect(port uint16) error {
	if s.State == StateClosed {
		return ErrClosed
	}
	switch s.State {
	case StateConnected:
		return ErrIsConn
	case StateListening, StateReset:
		return ErrInvalid
	}
	if s.State == StateNew {
		if err := s.Bind(0); err != nil {
			return err
		}
	}
	if s.Kind == Dgram {
		s.RemotePort = port
		s.State = StateConnected
		return nil
	}
	l, ok := s.net.ports[port]
	if !ok || l.Kind != Stream || l.State != StateListening {
		return ErrRefused
	}
	if kind, _, fired := s.net.fault("simnet.reset", "connect"); fired {
		_ = kind
		s.State = StateReset
		s.net.logDelivery("reset", s.LocalPort, port, 0)
		return ErrReset
	}
	if len(l.Backlog) >= l.BacklogMax {
		return ErrRefused
	}
	// The server-side endpoint is created directly (not through
	// NewSocket): the accept queue is kernel memory on the listener's
	// side, but it still occupies a socket-table slot once accepted, so
	// the gauge counts it on Accept, not here.
	srv := &Socket{
		net: s.net, Kind: Stream, State: StateConnected,
		LocalPort: port, RemotePort: s.LocalPort,
		RecvCap: DefaultRecvCap, DgramCap: 64,
	}
	srv.Peer = s
	s.Peer = srv
	s.RemotePort = port
	s.State = StateConnected
	l.Backlog = append(l.Backlog, srv)
	s.net.logDelivery("connect", s.LocalPort, port, 0)
	return nil
}

// Accept pops the oldest backlog connection.  nil with a nil error
// means the backlog is empty and a blocking accept would never return
// (no other runnable thread can connect).
func (s *Socket) Accept() (*Socket, error) {
	if s.State == StateClosed {
		return nil, ErrClosed
	}
	if s.Kind != Stream || s.State != StateListening {
		return nil, ErrInvalid
	}
	if len(s.Backlog) == 0 {
		return nil, nil
	}
	srv := s.Backlog[0]
	s.Backlog = s.Backlog[1:]
	s.net.opened++
	s.net.logDelivery("accept", srv.RemotePort, srv.LocalPort, 0)
	return srv, nil
}

// Send queues data toward the peer, applying the delivery chaos sites.
// It returns how many bytes were accepted.  A full peer buffer gives a
// short (possibly zero-byte) write rather than an error — the bounded-
// buffer model of a zero-window peer.
func (s *Socket) Send(data []byte) (int, error) {
	if s.State == StateClosed {
		return 0, ErrClosed
	}
	if s.ShutSendFlag {
		return 0, ErrShutdown
	}
	if s.State == StateReset {
		return 0, ErrReset
	}
	if s.State != StateConnected {
		return 0, ErrNotConn
	}
	if s.Kind == Stream && (s.Peer == nil || s.Peer.State == StateClosed) {
		// The peer endpoint is gone: RST on the next send.
		s.State = StateReset
		return 0, ErrReset
	}
	if kind, _, fired := s.net.fault("simnet.reset", "send"); fired {
		_ = kind
		s.reset()
		s.net.logDelivery("reset", s.LocalPort, s.RemotePort, len(data))
		return 0, ErrReset
	}
	if _, _, fired := s.net.fault("simnet.drop", "send"); fired {
		// The segment vanished; the sender still reports success (the
		// loss is the transport's to recover, and there is no
		// retransmission in one synchronous call).
		s.net.logDelivery("drop", s.LocalPort, s.RemotePort, len(data))
		return len(data), nil
	}
	copies := 1
	if _, _, fired := s.net.fault("simnet.dupe", "send"); fired {
		copies = 2
	}
	if _, ticks, fired := s.net.fault("simnet.delay", "send"); fired {
		for i := uint64(0); i < ticks; i++ {
			s.net.tick()
		}
		s.net.logDelivery("delay", s.LocalPort, s.RemotePort, len(data))
	}
	if s.Kind == Dgram {
		dst, ok := s.net.ports[s.RemotePort]
		if !ok || dst.Kind != Dgram {
			// No endpoint: the datagram is silently dropped, as UDP
			// over loopback reports only on the next recv (modelled as
			// success here).
			s.net.logDelivery("noroute", s.LocalPort, s.RemotePort, len(data))
			return len(data), nil
		}
		for i := 0; i < copies; i++ {
			if len(dst.Dgrams) < dst.DgramCap && !dst.ShutRecvFlag {
				msg := make([]byte, len(data))
				copy(msg, data)
				dst.Dgrams = append(dst.Dgrams, msg)
				s.net.logDelivery("dgram", s.LocalPort, s.RemotePort, len(msg))
			} else {
				s.net.logDelivery("dgramfull", s.LocalPort, s.RemotePort, len(data))
			}
		}
		return len(data), nil
	}
	p := s.Peer
	accepted := 0
	for i := 0; i < copies; i++ {
		room := p.RecvCap - len(p.RecvBuf)
		take := len(data)
		if take > room {
			take = room
		}
		if p.ShutRecvFlag {
			take = 0
		}
		p.RecvBuf = append(p.RecvBuf, data[:take]...)
		if i == 0 {
			accepted = take
		}
		s.net.logDelivery("deliver", s.LocalPort, s.RemotePort, take)
	}
	return accepted, nil
}

// Recv takes up to max bytes (streams) or one datagram (dgram).  A nil
// slice with wouldBlock true means a blocking recv can never complete:
// the buffer is empty and the peer can still send.  A zero-length
// non-nil result is orderly EOF.
func (s *Socket) Recv(max int) (data []byte, wouldBlock bool, err error) {
	if s.State == StateClosed {
		return nil, false, ErrClosed
	}
	if s.State == StateReset {
		return nil, false, ErrReset
	}
	if s.ShutRecvFlag {
		return []byte{}, false, nil
	}
	if s.Kind == Dgram {
		if s.State != StateConnected && s.State != StateBound {
			return nil, false, ErrNotConn
		}
		if len(s.Dgrams) == 0 {
			return nil, true, nil
		}
		msg := s.Dgrams[0]
		s.Dgrams = s.Dgrams[1:]
		if max < len(msg) {
			msg = msg[:max] // excess datagram bytes are discarded
		}
		return msg, false, nil
	}
	if s.State != StateConnected {
		return nil, false, ErrNotConn
	}
	if len(s.RecvBuf) == 0 {
		p := s.Peer
		if p == nil || p.State == StateClosed || p.State == StateReset || p.ShutSendFlag {
			return []byte{}, false, nil // orderly EOF
		}
		return nil, true, nil
	}
	take := len(s.RecvBuf)
	if take > max {
		take = max
	}
	data = s.RecvBuf[:take]
	s.RecvBuf = s.RecvBuf[take:]
	return data, false, nil
}

// Shutdown closes one or both directions (how: ShutRecv/ShutSend/
// ShutBoth).
func (s *Socket) Shutdown(how int) error {
	if s.State == StateClosed {
		return ErrClosed
	}
	if s.State != StateConnected && s.State != StateReset {
		return ErrNotConn
	}
	switch how {
	case ShutRecv:
		s.ShutRecvFlag = true
	case ShutSend:
		s.ShutSendFlag = true
	case ShutBoth:
		s.ShutRecvFlag = true
		s.ShutSendFlag = true
	default:
		return ErrInvalid
	}
	return nil
}

// reset drops both endpoints of a stream connection into the reset
// state (a simnet.reset fault, or a close racing in-flight data).
func (s *Socket) reset() {
	s.State = StateReset
	if s.Peer != nil && s.Peer.State == StateConnected {
		s.Peer.State = StateReset
	}
}

// Close releases the socket: its port unbinds (after any linger delay),
// pending backlog connections are reset, and a connected stream peer
// sees EOF (or RST if data was still queued here — the standard abortive
// close).  Closing twice is a no-op reporting false.
func (s *Socket) Close() bool {
	if s == nil || s.State == StateClosed {
		return false
	}
	if s.Linger > 0 {
		for i := uint32(0); i < s.Linger; i++ {
			s.net.tick()
		}
	}
	for _, b := range s.Backlog {
		b.reset()
	}
	s.Backlog = nil
	if s.Kind == Stream && s.Peer != nil && s.Peer.State == StateConnected && len(s.RecvBuf) > 0 {
		// Unread data at close → abortive RST to the peer.
		s.Peer.State = StateReset
	}
	if s.LocalPort != 0 && s.net.ports[s.LocalPort] == s {
		delete(s.net.ports, s.LocalPort)
	}
	s.State = StateClosed
	s.RecvBuf = nil
	s.Dgrams = nil
	s.net.closed++
	return true
}
