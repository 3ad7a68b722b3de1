package core

import (
	"slices"
	"time"

	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// Engine interposes between a client TCP stack and the network — the
// position INTANG occupies with netfilter-queue (§6). It tracks flows,
// instantiates a per-connection Strategy, applies it to outbound
// packets, and re-sends insertion packets to survive loss.
//
// The engine is the client end of its fabric: it emits from that end
// and is the end's netem.Endpoint, in a simulated trial and in the live
// proxy alike.
type Engine struct {
	Sim *netem.Simulator
	// Stack, when set, receives inbound packets (the in-simulation
	// client). A daemon-mode engine leaves it nil and sets Upstream.
	Stack *tcpstack.Stack
	Env   Env

	// Upstream, when set and Stack is nil, receives every inbound
	// packet that passes OnInbound — the live proxy's path back to its
	// real clients. The packet still belongs to the substrate for the
	// duration of the call; implementations copy what they keep.
	Upstream func(pkt *packet.Packet)

	// NewStrategy picks the strategy for a new flow. A nil return (or
	// nil field) passes traffic through untouched.
	NewStrategy func(tuple packet.FourTuple) Strategy

	// OnInbound, when set, observes every inbound packet before the
	// stack (INTANG's DNS thread and hop-count prober hook in here).
	// Returning false consumes the packet.
	OnInbound func(pkt *packet.Packet) bool
	// OnOutbound, when set, observes every packet leaving the stack
	// before strategies run. Returning false consumes the packet
	// (INTANG's DNS forwarder redirects UDP queries this way).
	OnOutbound func(pkt *packet.Packet) bool
	// OnOutboundRaw, when set, observes every packet actually emitted.
	OnOutboundRaw func(em Emission)

	// FirstSendAt/LastSendAt bracket, on the virtual clock, every
	// packet the engine emitted — including delayed insertion waves —
	// so the experiment runner can span the strategy-application
	// stage. Both stay zero until the first send.
	FirstSendAt time.Duration
	LastSendAt  time.Duration
	sentAny     bool

	// flows is made at the first flow.
	flows map[packet.FourTuple]*flowState
	// net is the fabric whose client end the engine holds.
	net *netem.Fabric
	// out is the emissions buffer every flow's strategy returns its
	// volley in (Flow.Emit), consumed before the next Outbound.
	out []Emission
	// spare holds the flows of the trials before, while Sim lends, and
	// outbound is Outbound bound once, the stack's Send.
	spare    netem.Spares[flowState]
	outbound func(pkt *packet.Packet)
}

type flowState struct {
	flow  Flow
	strat Strategy
}

// NewEngine wires an engine between stack and the client end of f.
// A nil stack builds a daemon-mode engine: outbound packets enter
// through Outbound, inbound packets leave through Upstream.
func NewEngine(sim *netem.Simulator, f *netem.Fabric, stack *tcpstack.Stack, env Env) *Engine {
	e := new(Engine)
	e.Reset(sim, f, stack, env)
	return e
}

// Reset rewires e as NewEngine(sim, f, stack, env) does, with no flows
// and no hooks. It keeps the storage of its flow table and emissions
// buffer and, while sim lends, the flows it made (netem.Spares) with
// their compiled-strategy state, which new flows reuse: an engine
// reset for each trial tracks its flows without allocating. Every flow
// made before the reset is dead. Reset on a zero Engine is NewEngine.
func (e *Engine) Reset(sim *netem.Simulator, f *netem.Fabric, stack *tcpstack.Stack, env Env) {
	e.spare.Rewind()
	clear(e.flows)
	*e = Engine{
		Sim: sim, Stack: stack, Env: env, net: f,
		flows: e.flows, out: e.out[:0], spare: e.spare, outbound: e.outbound,
	}
	if e.outbound == nil {
		e.outbound = e.Outbound
	}
	if stack != nil {
		stack.Send = e.outbound
	}
	f.Client = e
}

// StrategyFor returns the live strategy instance for a flow, if any.
func (e *Engine) StrategyFor(tuple packet.FourTuple) (Strategy, bool) {
	fs, ok := e.flows[tuple]
	if !ok || fs.strat == nil {
		return nil, false
	}
	return fs.strat, true
}

// Outbound intercepts a packet leaving the client stack.
func (e *Engine) Outbound(pkt *packet.Packet) {
	if e.OnOutbound != nil && !e.OnOutbound(pkt) {
		return
	}
	if pkt.TCP == nil {
		e.send(Emission{Pkt: pkt})
		return
	}
	// Assign the wire ID now, before strategies run, so insertion
	// packets crafted from this one can record it as lineage parent.
	e.net.StampLineage(pkt)
	tuple := pkt.Tuple()
	fs := e.flows[tuple]
	if fs == nil || Reconnects(pkt.TCP, fs.flow.ISS) {
		fs = e.spare.Get(e.Sim.Lends())
		*fs = flowState{flow: Flow{Tuple: tuple, Env: &e.Env, pool: e.net.Pool, out: &e.out, exec: fs.flow.exec.reuse()}}
		if e.NewStrategy != nil {
			fs.strat = e.NewStrategy(tuple)
		}
		if e.flows == nil {
			e.flows = make(map[packet.FourTuple]*flowState)
		}
		e.flows[tuple] = fs
	}
	f := &fs.flow
	tcp := pkt.TCP

	// Track the flow state strategies craft against.
	if tcp.FlagsOnly(packet.FlagSYN) {
		f.ISS = tcp.Seq
		f.SndNxt = tcp.Seq
	}
	if tcp.HasFlag(packet.FlagACK) {
		if tcp.Ack.After(f.RcvNxt) {
			f.RcvNxt = tcp.Ack
		}
		if !f.HandshakeDone && !tcp.HasFlag(packet.FlagSYN) {
			f.HandshakeDone = true
		}
	}

	var emissions []Emission
	if fs.strat != nil {
		emissions = fs.strat.Outbound(f, pkt)
	} else {
		emissions = f.Emit(real(pkt))
	}

	if end := pkt.EndSeq(); end.After(f.SndNxt) {
		f.SndNxt = end
	}
	f.DataSent += len(pkt.Payload)

	e.emit(emissions)
	if !slices.ContainsFunc(emissions, func(em Emission) bool { return em.Pkt == pkt }) {
		// The strategy's pieces replaced the client's packet, which
		// the wire never sees.
		e.net.Release(pkt)
	}
	// The buffer pins no packet once its volley is on its way.
	clear(e.out)
}

// Reconnects reports whether tcp, leaving the client on a tuple whose
// flow began with initial sequence number iss, opens a new connection
// on that tuple: a bare SYN with another sequence number. A
// retransmitted SYN keeps its flow. A long-running engine sees tuples
// reused once the client's ephemeral ports wrap, and a new connection
// must not inherit a finished flow whose one-shot triggers have fired.
func Reconnects(tcp *packet.TCPHeader, iss packet.Seq) bool {
	return tcp != nil && tcp.FlagsOnly(packet.FlagSYN) && tcp.Seq != iss
}

// emit sends a volley. Insertion packets are sent in Env.Repeat waves
// (20 ms apart by default, §3.4) to survive loss and middlebox drops;
// the volley's real packets are held until the final wave, so the
// insertions get every chance to take effect on the GFW before the
// protected traffic passes it. Volleys with no insertions go out
// immediately.
func (e *Engine) emit(emissions []Emission) {
	repeat := e.Env.Repeat
	if repeat < 1 {
		repeat = 1
	}
	gap := e.Env.RepeatGap
	if gap == 0 {
		gap = 20 * time.Millisecond
	}
	hasInsertion := false
	for _, em := range emissions {
		if em.Insertion {
			hasInsertion = true
			break
		}
	}
	if !hasInsertion {
		for _, em := range emissions {
			if d := em.Delay; d > 0 {
				e.sendAfter(d, em.Pkt, false)
				continue
			}
			e.send(em)
		}
		return
	}
	finalWave := time.Duration(repeat-1) * gap
	for wave := 0; wave < repeat; wave++ {
		delay := time.Duration(wave) * gap
		last := wave == repeat-1
		for _, em := range emissions {
			switch {
			case em.Insertion:
				// Each wave sends its own copy; pooled clones let the
				// path recycle them at end-of-life.
				e.sendAfter(delay+em.Delay, e.net.Pool.Clone(em.Pkt), true)
			case last:
				e.sendAfter(finalWave+em.Delay, em.Pkt, false)
			}
		}
	}
	// The crafted originals never reach the wire, and no tracer has
	// seen them: only their clones are sent.
	for _, em := range emissions {
		if em.Insertion {
			em.Pkt.Release()
		}
	}
}

// sendAfter schedules pkt to be sent after delay, as an insertion or
// as real traffic, with the engine as the event's handler (sender), so
// a wave allocates nothing.
func (e *Engine) sendAfter(delay time.Duration, pkt *packet.Packet, insertion bool) {
	arg := 0
	if insertion {
		arg = 1
	}
	e.Sim.AtPacket(delay, (*sender)(e), pkt, arg, netem.ToServer)
}

// sender is an engine seen as the handler of the emissions it delays.
type sender Engine

// HandlePacket implements netem.PacketHandler: a delayed emission of
// pkt falls due, an insertion if insertion is 1.
func (s *sender) HandlePacket(pkt *packet.Packet, insertion int, _ netem.Direction) {
	(*Engine)(s).send(Emission{Pkt: pkt, Insertion: insertion == 1})
}

func (e *Engine) send(em Emission) {
	now := e.Sim.Now()
	if !e.sentAny {
		e.sentAny = true
		e.FirstSendAt = now
	}
	e.LastSendAt = now
	if e.OnOutboundRaw != nil {
		e.OnOutboundRaw(em)
	}
	e.net.SendFromClient(em.Pkt)
}

// Deliver implements netem.Endpoint for the client end.
func (e *Engine) Deliver(pkt *packet.Packet) {
	if e.OnInbound != nil && !e.OnInbound(pkt) {
		return
	}
	if pkt.TCP != nil && pkt.TCP.HasFlag(packet.FlagSYN) && pkt.TCP.HasFlag(packet.FlagACK) {
		if fs, ok := e.flows[pkt.Tuple().Reverse()]; ok {
			fs.flow.ServerISN = pkt.TCP.Seq
		}
	}
	switch {
	case e.Stack != nil:
		e.Stack.Deliver(pkt)
	case e.Upstream != nil:
		e.Upstream(pkt)
	}
}

// DropFlow forgets the per-flow state for tuple (both orientations) —
// the daemon's idle-flow expiry calls it so a long-running engine's
// flow table cannot grow without bound.
func (e *Engine) DropFlow(tuple packet.FourTuple) {
	delete(e.flows, tuple)
	delete(e.flows, tuple.Reverse())
}

// Flows returns the number of tracked flows.
func (e *Engine) Flows() int { return len(e.flows) }
