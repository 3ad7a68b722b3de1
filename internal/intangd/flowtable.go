// Package intangd is the live evasion proxy: a long-running daemon
// that multiplexes real client flows through the strategy engine and
// out across a (simulated or real) censored path. It is the daemon
// counterpart of the per-trial experiment rig — same engine, same
// censor devices, same observability plane, but flows arrive
// concurrently from outside instead of being scripted one at a time.
// The world and the clients on its device run on one netem.Clock: one
// simulator, one wall-clock pump, and one lock that every packet, timer
// and control-plane call takes.
package intangd

import (
	"fmt"
	"sort"
	"time"

	"intango/internal/core"
	"intango/internal/packet"
)

// flowInfo is the per-flow record the daemon keeps alongside the
// engine's strategy state: traffic counters, liveness timestamps on
// both clocks, and the TCP teardown signals seen from the network side.
type flowInfo struct {
	tuple    packet.FourTuple
	iss      packet.Seq // the client's, from the SYN that opened the flow
	strategy string

	outPkts  uint64
	inPkts   uint64
	outBytes uint64
	inBytes  uint64

	gotRST  bool // RST arrived from the network side (censor or server)
	finSeen bool // orderly close observed in either direction

	openedWall time.Time
	lastWall   time.Time
	openedVirt time.Duration
	lastVirt   time.Duration
}

// FlowView is the JSON shape /flows serves.
type FlowView struct {
	Tuple    string `json:"tuple"`
	Strategy string `json:"strategy"`
	State    string `json:"state"`
	OutPkts  uint64 `json:"out_pkts"`
	InPkts   uint64 `json:"in_pkts"`
	OutBytes uint64 `json:"out_bytes"`
	InBytes  uint64 `json:"in_bytes"`
	GotRST   bool   `json:"got_rst"`
	AgeMS    int64  `json:"age_ms"`
	IdleMS   int64  `json:"idle_ms"`
	VirtMS   int64  `json:"virt_ms"` // virtual-clock lifetime
}

// flowTable is the daemon's per-flow state, keyed by canonical tuple so
// both directions of a connection find one record. It has no lock of
// its own: it lives under the world lock, which every packet that
// touches it already holds.
type flowTable map[packet.FourTuple]*flowInfo

func pktBytes(pkt *packet.Packet) uint64 {
	if n := pkt.IP.TotalLength; n > 0 {
		return uint64(n)
	}
	return uint64(len(pkt.Payload))
}

// touchOutbound records a client-side packet, opening a flow record
// (stamped with the strategy in force) on first sight of the tuple or
// when a SYN reconnects it (core.Reconnects), as the engine opens a
// new flow. Returns true when this packet opened a flow.
func (t flowTable) touchOutbound(pkt *packet.Packet, strategy string, wall time.Time, virt time.Duration) bool {
	key := pkt.Tuple().Canonical()
	fi, ok := t[key]
	opened := !ok || core.Reconnects(pkt.TCP, fi.iss)
	if opened {
		fi = &flowInfo{
			tuple: pkt.Tuple(), strategy: strategy,
			openedWall: wall, openedVirt: virt,
		}
		if pkt.TCP != nil && pkt.TCP.FlagsOnly(packet.FlagSYN) {
			fi.iss = pkt.TCP.Seq
		}
		t[key] = fi
	}
	fi.outPkts++
	fi.outBytes += pktBytes(pkt)
	fi.lastWall, fi.lastVirt = wall, virt
	if pkt.TCP != nil && pkt.TCP.HasFlag(packet.FlagFIN) {
		fi.finSeen = true
	}
	return opened
}

// touchInbound records a network-side packet for an already-open flow;
// packets for unknown flows (e.g. censor injections racing expiry) are
// counted by the caller's registry but create no record.
func (t flowTable) touchInbound(pkt *packet.Packet, wall time.Time, virt time.Duration) {
	fi, ok := t[pkt.Tuple().Canonical()]
	if !ok {
		return
	}
	fi.inPkts++
	fi.inBytes += pktBytes(pkt)
	fi.lastWall, fi.lastVirt = wall, virt
	if pkt.TCP != nil {
		if pkt.TCP.HasFlag(packet.FlagRST) {
			fi.gotRST = true
		}
		if pkt.TCP.HasFlag(packet.FlagFIN) {
			fi.finSeen = true
		}
	}
}

// expire removes flows idle (wall clock) for longer than idle and
// returns their canonical tuples so the caller can drop the engine's
// matching strategy state.
func (t flowTable) expire(now time.Time, idle time.Duration) []packet.FourTuple {
	var expired []packet.FourTuple
	for key, fi := range t {
		if now.Sub(fi.lastWall) >= idle {
			delete(t, key)
			expired = append(expired, key)
		}
	}
	return expired
}

// snapshot renders the table for /flows, oldest flow first.
func (t flowTable) snapshot(now time.Time) []FlowView {
	out := make([]FlowView, 0, len(t))
	for _, fi := range t {
		state := "active"
		switch {
		case fi.gotRST:
			state = "reset"
		case fi.finSeen:
			state = "closing"
		}
		out = append(out, FlowView{
			Tuple:    tupleString(fi.tuple),
			Strategy: fi.strategy,
			State:    state,
			OutPkts:  fi.outPkts, InPkts: fi.inPkts,
			OutBytes: fi.outBytes, InBytes: fi.inBytes,
			GotRST: fi.gotRST,
			AgeMS:  now.Sub(fi.openedWall).Milliseconds(),
			IdleMS: now.Sub(fi.lastWall).Milliseconds(),
			VirtMS: (fi.lastVirt - fi.openedVirt).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AgeMS != out[j].AgeMS {
			return out[i].AgeMS > out[j].AgeMS
		}
		return out[i].Tuple < out[j].Tuple
	})
	return out
}

func tupleString(t packet.FourTuple) string {
	return fmt.Sprintf("%d.%d.%d.%d:%d->%d.%d.%d.%d:%d",
		t.SrcAddr[0], t.SrcAddr[1], t.SrcAddr[2], t.SrcAddr[3], t.SrcPort,
		t.DstAddr[0], t.DstAddr[1], t.DstAddr[2], t.DstAddr[3], t.DstPort)
}
