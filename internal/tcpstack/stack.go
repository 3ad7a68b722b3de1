package tcpstack

import (
	"time"

	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
)

// connKey identifies a connection from the local stack's perspective.
type connKey struct {
	localPort  uint16
	remoteAddr packet.Addr
	remotePort uint16
}

// Acceptor is called when a listener accepts a new connection, before
// the SYN/ACK is sent, so the application can install callbacks.
type Acceptor func(c *Conn)

// UDPHandler receives UDP datagrams addressed to a bound port.
type UDPHandler func(src packet.Addr, srcPort uint16, payload []byte)

// InitialRTO and MaxRetries control retransmission. MinRTO and MaxRTO
// clamp the RFC 6298 sampled estimate: the 200ms floor matches Linux
// (and always binds at simulated RTTs, preserving pre-sampling
// timing), the 60s ceiling caps exponential backoff. TimeWaitDuration
// is how long TIME_WAIT lingers before the connection entry is
// reclaimed.
const (
	InitialRTO       = 200 * time.Millisecond
	MinRTO           = 200 * time.Millisecond
	MaxRTO           = 60 * time.Second
	MaxRetries       = 6
	TimeWaitDuration = 500 * time.Millisecond
)

// ObserveFunc, when set on a Stack, sees every (segment, disposition)
// pair its connections classify — the hook the ignore-path analysis and
// tests use.
type ObserveFunc func(c *Conn, pkt *packet.Packet, d Disposition)

// Stack is a host's TCP/IP endpoint: an address, a version Profile, a
// connection table, listeners, and a transmit function bound to a
// netem path.
type Stack struct {
	Addr    packet.Addr
	Profile Profile
	Sim     *netem.Simulator

	// Send transmits a packet into the network. Bind it with
	// AttachClient/AttachServer or set it directly (the strategy engine
	// interposes here, and a userspace stack writes to its device).
	Send func(pkt *packet.Packet)

	// Observe, when set, sees every classified segment.
	Observe ObserveFunc

	// Obs, when set, counts every non-Accept disposition (challenge
	// ACKs, PAWS/MD5/checksum rejections, RST validation outcomes) and
	// retransmission as "tcpstack.<reason>" and records them in the
	// flight recorder, and counts the answers the ACK-loop limits
	// suppress as "tcpstack.ack-ratelimited" (per socket) and
	// "tcpstack.challenge-ack-limited" (host-wide). Nil (the default)
	// costs one branch per segment.
	Obs *obs.Obs

	// Pool, when set, supplies recycled packets for every segment the
	// stack crafts. AttachClient/AttachServer copy it from the path; a
	// nil pool falls back to heap allocation transparently.
	Pool *packet.Pool

	// ForceISS, when set, overrides the simulator's draw of the initial
	// send sequence number for new connections (both ConnectFrom and
	// accepted listeners). Wraparound regression tests pin it just below
	// 2^32 so handshakes and data transfer cross the 32-bit boundary; a
	// userspace stack draws from a source of its own, so its connections
	// leave the world's random stream alone.
	ForceISS func() packet.Seq

	// challengeSec and challenges count the RFC 5961 challenge ACKs
	// asked for in the current virtual second, sent or not, against
	// challengeACKLimit.
	challengeSec time.Duration
	challenges   int

	// stateLabels caches the flight-recorder note of each state
	// transition ("addr FROM>TO"), built on a transition's first trace.
	stateLabels map[[2]State]string

	// reasonLabels caches the counter name of each non-Accept
	// disposition reason ("tcpstack.<reason>").
	reasonLabels map[string]string

	// The tables are made on first use, and the fragment reassembler
	// at the first fragment: most stacks never see one.
	conns     map[connKey]*Conn
	listeners map[uint16]Acceptor
	udp       map[uint16]UDPHandler
	nextPort  uint16
	frag      *packet.Reassembler
	// net is the fabric the stack is attached to, which decides
	// whether a reassembled datagram may be recycled (nil: never), and
	// server the end it is attached at: with no Send set, the stack
	// transmits from that end.
	net    *netem.Fabric
	server bool
	// spare holds the connections of the trials before, while Sim lends.
	spare netem.Spares[Conn]
}

// NewStack creates a stack for addr with the given profile.
func NewStack(addr packet.Addr, profile Profile, sim *netem.Simulator) *Stack {
	s := new(Stack)
	s.Reset(addr, profile, sim)
	return s
}

// Reset returns s to NewStack(addr, profile, sim)'s state: no
// connections, listeners or handlers, nothing attached or hooked. It
// keeps the storage of its tables, its label caches and, while sim
// lends, the connections it made (netem.Spares), which new connections
// reuse: a stack reset for each trial connects without allocating.
// Every connection made before the reset is dead. Reset on a zero
// Stack is NewStack.
func (s *Stack) Reset(addr packet.Addr, profile Profile, sim *netem.Simulator) {
	s.spare.Rewind()
	clear(s.conns)
	clear(s.listeners)
	clear(s.udp)
	if s.frag != nil {
		s.frag.Reset(packet.LastWins)
	}
	if addr != s.Addr {
		clear(s.stateLabels) // they name the address
	}
	*s = Stack{
		Addr: addr, Profile: profile, Sim: sim, nextPort: 32768,
		stateLabels: s.stateLabels, reasonLabels: s.reasonLabels,
		conns: s.conns, listeners: s.listeners, udp: s.udp, frag: s.frag,
		spare: s.spare,
	}
}

// AttachClient wires the stack to the client end of a fabric: the
// stack is the end's endpoint and, unless Send is set, transmits from
// it.
func (s *Stack) AttachClient(f *netem.Fabric) {
	f.Client = s
	s.Pool, s.net, s.server = f.Pool, f, false
}

// AttachServer wires the stack to the server end of a fabric.
func (s *Stack) AttachServer(f *netem.Fabric) {
	f.Server = s
	s.Pool, s.net, s.server = f.Pool, f, true
}

func (s *Stack) send(pkt *packet.Packet) {
	switch {
	case s.Send != nil:
		s.Send(pkt)
	case s.net == nil:
	case s.server:
		s.net.SendFromServer(pkt)
	default:
		s.net.SendFromClient(pkt)
	}
}

func (s *Stack) observe(c *Conn, pkt *packet.Packet, d Disposition) {
	if s.Obs != nil && d.Verdict != Accept {
		s.Obs.Count(s.reasonLabel(d.Reason))
		if d.Verdict == IgnoreWithAck {
			// The aggregate the paper's §5.1 cares about: segments that
			// only elicit a duplicate/challenge ACK.
			s.Obs.Count("tcpstack.ignore-with-ack")
		}
		s.Obs.TracePkt("tcpstack", d.Reason, pkt.Lin.ID, pkt.Lin.Parent, uint32(pkt.TCP.Seq), pkt.TCP.Flags, d.Verdict.String())
	}
	if s.Observe != nil {
		s.Observe(c, pkt, d)
	}
}

// stateLabel returns the flight-recorder note of a transition from
// from to to. A long-lived stack, such as a daemon's origin, builds
// each note once instead of at every transition.
func (s *Stack) stateLabel(from, to State) string {
	k := [2]State{from, to}
	l, ok := s.stateLabels[k]
	if !ok {
		if s.stateLabels == nil {
			s.stateLabels = make(map[[2]State]string)
		}
		l = s.Addr.String() + " " + from.String() + ">" + to.String()
		s.stateLabels[k] = l
	}
	return l
}

// reasonLabel returns the counter name of a disposition reason, built
// on the reason's first segment.
func (s *Stack) reasonLabel(reason string) string {
	l, ok := s.reasonLabels[reason]
	if !ok {
		if s.reasonLabels == nil {
			s.reasonLabels = make(map[string]string)
		}
		l = "tcpstack." + reason
		s.reasonLabels[reason] = l
	}
	return l
}

// Listen registers an acceptor for a TCP port.
func (s *Stack) Listen(port uint16, accept Acceptor) {
	if s.listeners == nil {
		s.listeners = make(map[uint16]Acceptor)
	}
	s.listeners[port] = accept
}

// ListenUDP registers a handler for a UDP port.
func (s *Stack) ListenUDP(port uint16, h UDPHandler) {
	if s.udp == nil {
		s.udp = make(map[uint16]UDPHandler)
	}
	s.udp[port] = h
}

// SendUDP transmits a UDP datagram.
func (s *Stack) SendUDP(srcPort uint16, dst packet.Addr, dstPort uint16, payload []byte) {
	p := s.Pool.NewUDP(s.Addr, srcPort, dst, dstPort, payload)
	p.Lin.Origin = packet.OriginStack
	s.send(p)
}

// AllocPort returns a fresh ephemeral port.
func (s *Stack) AllocPort() uint16 {
	p := s.nextPort
	s.nextPort++
	if s.nextPort == 0 {
		s.nextPort = 32768
	}
	return p
}

// Connect opens a connection to raddr:rport and sends the SYN.
func (s *Stack) Connect(raddr packet.Addr, rport uint16) *Conn {
	return s.ConnectFrom(s.AllocPort(), raddr, rport)
}

// chooseISS draws the initial send sequence number, honoring
// ForceISS.
func (s *Stack) chooseISS() packet.Seq {
	if s.ForceISS != nil {
		return s.ForceISS()
	}
	return packet.Seq(s.Sim.Rand().Uint32())
}

// ConnectFrom opens a connection from a specific local port.
func (s *Stack) ConnectFrom(lport uint16, raddr packet.Addr, rport uint16) *Conn {
	c := s.newConn(lport, raddr, rport)
	c.iss = s.chooseISS()
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.tsEnabled = s.Profile.UseTimestamps
	c.setState(SynSent)
	c.sendData(packet.FlagSYN, nil)
	return c
}

// newConn makes a connection, on a spare's storage when there is one:
// its queues keep their room, and its buffers, which the simulator
// lent and took back at its reset, start empty.
func (s *Stack) newConn(lport uint16, raddr packet.Addr, rport uint16) *Conn {
	c := s.spare.Get(s.Sim.Lends())
	*c = Conn{stack: s, rto: InitialRTO, rcvWnd: s.Profile.WindowSize, retx: c.retx[:0], ooo: c.ooo[:0]}
	c.initCongestion()
	c.local.addr, c.local.port = s.Addr, lport
	c.remote.addr, c.remote.port = raddr, rport
	if s.conns == nil {
		s.conns = make(map[connKey]*Conn)
	}
	s.conns[connKey{lport, raddr, rport}] = c
	return c
}

func (s *Stack) removeConn(c *Conn) {
	delete(s.conns, connKey{c.local.port, c.remote.addr, c.remote.port})
}

// Conn returns the live connection matching the tuple, if any.
func (s *Stack) Conn(lport uint16, raddr packet.Addr, rport uint16) (*Conn, bool) {
	c, ok := s.conns[connKey{lport, raddr, rport}]
	return c, ok
}

// Deliver implements netem.Endpoint: the stack's receive path.
func (s *Stack) Deliver(pkt *packet.Packet) {
	if !pkt.IP.IsFragment() {
		s.deliver(pkt)
		return
	}
	if s.frag == nil {
		// Hosts resolve overlapping fragments in favour of the newest
		// copy — the behaviour the out-of-order IP-fragment evasion of
		// §3.2 relies on at the server.
		s.frag = packet.NewReassembler(packet.LastWins)
	}
	whole, err := s.frag.AddAt(pkt, s.Sim.Now())
	if n := s.frag.TakeEvicted(); n > 0 && s.Obs != nil {
		s.Obs.Registry().Add("tcpstack.frag-evict", n)
	}
	if err != nil || whole == nil {
		return
	}
	// The whole datagram is the stack's own: its life ends here.
	s.deliver(whole)
	s.net.Release(whole)
}

// deliver hands a whole datagram to its protocol.
func (s *Stack) deliver(pkt *packet.Packet) {
	switch {
	case pkt.TCP != nil:
		s.deliverTCP(pkt)
	case pkt.UDP != nil:
		if h, ok := s.udp[pkt.UDP.DstPort]; ok {
			h(pkt.IP.Src, pkt.UDP.SrcPort, pkt.Payload)
		}
	default:
		// ICMP and raw IP are dropped; interested parties (INTANG's
		// hop-count prober) interpose on the path, not the stack.
	}
}

func (s *Stack) deliverTCP(pkt *packet.Packet) {
	key := connKey{pkt.TCP.DstPort, pkt.IP.Src, pkt.TCP.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.handleSegment(pkt)
		return
	}
	// No connection: maybe a listener.
	if accept, ok := s.listeners[pkt.TCP.DstPort]; ok {
		s.listenSegment(pkt, accept)
		return
	}
	// Closed port: RST any non-RST segment (RFC 793).
	if !pkt.TCP.HasFlag(packet.FlagRST) {
		s.respondRST(pkt)
	}
}

// listenSegment applies LISTEN-state rules.
func (s *Stack) listenSegment(pkt *packet.Packet, accept Acceptor) {
	tcp := pkt.TCP
	// Header-level ignore paths still apply in LISTEN.
	if s.Profile.ValidatesIPLength && int(pkt.IP.TotalLength) > actualIPLength(pkt) {
		return
	}
	if tcp.RawDataOffset != 0 && tcp.RawDataOffset < 5 {
		return
	}
	if s.Profile.ValidatesChecksum && !tcp.VerifyChecksum(pkt.IP.Src, pkt.IP.Dst, pkt.Payload) {
		return
	}
	if s.Profile.ValidatesMD5 && tcp.HasMD5() {
		return
	}
	switch {
	case tcp.HasFlag(packet.FlagRST):
		return
	case tcp.HasFlag(packet.FlagACK):
		// Includes the SYN/ACK a TCB-Reversal client sends: the server
		// answers with a RST (§5.2), seq taken from the ack field.
		s.respondRST(pkt)
		return
	case tcp.HasFlag(packet.FlagSYN):
		c := s.newConn(tcp.DstPort, pkt.IP.Src, tcp.SrcPort)
		c.causeID = pkt.Lin.ID
		c.iss = s.chooseISS()
		c.sndUna = c.iss
		c.sndNxt = c.iss
		c.rcvNxt = tcp.Seq.Add(1)
		_, _, hasTS := tcp.Timestamps()
		c.tsEnabled = hasTS && s.Profile.UseTimestamps
		if tsval, _, ok := tcp.Timestamps(); ok {
			c.tsRecent = tsval
			c.hasTSRecent = true
		}
		c.setState(SynRecv)
		accept(c)
		c.sendData(packet.FlagSYN|packet.FlagACK, nil)
	}
}

// respondRST sends the RFC 793 reset for an orphan segment.
func (s *Stack) respondRST(pkt *packet.Packet) {
	tcp := pkt.TCP
	rst := s.Pool.Get()
	rst.Lin = packet.Lineage{Origin: packet.OriginStack, Parent: pkt.Lin.ID}
	rst.IP = packet.IPv4Header{TTL: 64, Protocol: packet.ProtoTCP, Src: s.Addr, Dst: pkt.IP.Src}
	h := rst.UseTCP()
	h.SrcPort, h.DstPort = tcp.DstPort, tcp.SrcPort
	if tcp.HasFlag(packet.FlagACK) {
		h.Flags = packet.FlagRST
		h.Seq = tcp.Ack
	} else {
		h.Flags = packet.FlagRST | packet.FlagACK
		h.Ack = tcp.Seq.Add(pktSegLen(pkt))
	}
	s.send(rst.Finalize())
}

func pktSegLen(pkt *packet.Packet) int {
	n := len(pkt.Payload)
	if pkt.TCP.HasFlag(packet.FlagSYN) {
		n++
	}
	if pkt.TCP.HasFlag(packet.FlagFIN) {
		n++
	}
	return n
}
