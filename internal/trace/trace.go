// Package trace builds per-trial causal traces on top of the obs
// flight recorder. A Tracer taps a trial's Recorder (receiving the
// complete event stream, beyond the bounded ring) and hooks the netem
// fabric (capturing the serialized bytes of every packet at its
// transmission point, annotated with lineage: who crafted it and which
// packet caused it). The assembled Trace exports as an annotated pcap,
// as JSONL, and as Chrome trace-event JSON, and renders a
// human-readable narrative of why the trial ended the way it did.
package trace

import (
	"time"

	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
)

// PacketRecord is one wire packet captured at its transmission point,
// with its lineage annotations resolved to plain values.
type PacketRecord struct {
	Time    time.Duration `json:"t"`
	ID      uint32        `json:"id"`
	Parent  uint32        `json:"parent,omitempty"`
	Origin  string        `json:"origin"`
	Crafter string        `json:"crafter,omitempty"`
	Where   string        `json:"where"`
	Event   string        `json:"event"` // "send" or "inject"
	Dir     string        `json:"dir"`
	Summary string        `json:"summary"`
	Data    []byte        `json:"-"`
}

// Tracer accumulates one trial's causal record. It implements
// obs.EventSink for the recorder tap; PathHook supplies the netem trace
// hook for byte capture. A trial is single-goroutine, so the tracer
// needs no locking.
type Tracer struct {
	Events  []obs.Event
	Packets []PacketRecord

	// rec is the tapped recorder; Finish reads its stage spans.
	rec *obs.Recorder
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// RecordEvent implements obs.EventSink.
func (t *Tracer) RecordEvent(e obs.Event) {
	t.Events = append(t.Events, e)
}

// PathHook returns a netem trace hook that captures every packet at
// its send/inject point, chaining to prev (which may be nil). Capturing
// at transmission points only means each datagram appears once, with
// its lineage already stamped.
func (t *Tracer) PathHook(prev func(netem.TraceEvent)) func(netem.TraceEvent) {
	return func(ev netem.TraceEvent) {
		switch ev.Event {
		case "send", "inject":
			t.Packets = append(t.Packets, PacketRecord{
				Time:    ev.Time,
				ID:      ev.Pkt.Lin.ID,
				Parent:  ev.Pkt.Lin.Parent,
				Origin:  ev.Pkt.Lin.Origin.String(),
				Crafter: ev.Pkt.Lin.Crafter.String(),
				Where:   ev.Where,
				Event:   ev.Event,
				Dir:     ev.Dir.String(),
				Summary: summarize(ev.Pkt),
				Data:    ev.Pkt.Serialize(packet.SerializeOptions{}),
			})
		}
		if prev != nil {
			prev(ev)
		}
	}
}

// Attach wires the tracer into a trial: the recorder tap for the event
// stream and the fabric's trace hook for packet bytes, chained in
// front of any hook already attached.
func (t *Tracer) Attach(rec *obs.Recorder, f *netem.Fabric) {
	t.rec = rec
	rec.Tap(t)
	f.Trace = t.PathHook(f.Trace)
}

// Meta identifies the trial a trace came from.
type Meta struct {
	Strategy string `json:"strategy,omitempty"`
	VP       string `json:"vp,omitempty"`
	Server   string `json:"server,omitempty"`
	Trial    int    `json:"trial"`
	Outcome  string `json:"outcome,omitempty"`
}

// Trace is the completed causal record of one trial.
type Trace struct {
	Meta    Meta
	Packets []PacketRecord
	Events  []obs.Event
	// Spans are the trial's virtual-time stage intervals (topology
	// build, handshake, strategy, verdict, teardown), copied from the
	// tapped recorder at Finish.
	Spans []obs.Span
}

// Finish freezes the tracer into a Trace carrying meta.
func (t *Tracer) Finish(meta Meta) *Trace {
	return &Trace{Meta: meta, Packets: t.Packets, Events: t.Events, Spans: t.rec.Spans()}
}

// summarize renders a one-line protocol summary of a packet.
func summarize(p *packet.Packet) string {
	switch {
	case p.TCP != nil:
		s := tupleString(p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort) +
			" [" + packet.FlagString(p.TCP.Flags) + "]" +
			" seq=" + utoa(uint32(p.TCP.Seq))
		if p.TCP.Flags&packet.FlagACK != 0 {
			s += " ack=" + utoa(uint32(p.TCP.Ack))
		}
		if n := len(p.Payload); n > 0 {
			s += " len=" + utoa(uint32(n))
		}
		if p.IP.IsFragment() {
			s += " frag"
		}
		return s
	case p.UDP != nil:
		return tupleString(p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort) +
			" udp len=" + utoa(uint32(len(p.Payload)))
	case p.IP.IsFragment():
		return p.IP.Src.String() + ">" + p.IP.Dst.String() +
			" frag off=" + utoa(uint32(p.IP.FragOffset)) + " len=" + utoa(uint32(len(p.Payload)))
	default:
		return p.IP.Src.String() + ">" + p.IP.Dst.String() + " proto=" + utoa(uint32(p.IP.Protocol))
	}
}

func tupleString(src packet.Addr, sport uint16, dst packet.Addr, dport uint16) string {
	return src.String() + ":" + utoa(uint32(sport)) + ">" + dst.String() + ":" + utoa(uint32(dport))
}

// utoa is strconv.Itoa for uint32 without the import noise at call
// sites.
func utoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b [10]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
