package gfw

import (
	"intango/internal/netem"
	"intango/internal/packet"
)

// ClientSide reports whether addr lives on the client end of a path,
// which is how censors aim the packets they inject. Every world places
// its clients in 10.0.0.0/8 and its servers outside it.
func ClientSide(addr packet.Addr) bool { return addr[0] == 10 }

// IsIPBlocked reports whether addr has been null-routed (Tor active
// probing aftermath, §7.3).
func (d *Device) IsIPBlocked(addr packet.Addr) bool { return d.ipBlock[addr] }

// BlockIP null-routes addr immediately (test/probe helper).
func (d *Device) BlockIP(addr packet.Addr) {
	if d.ipBlock == nil {
		d.ipBlock = make(map[packet.Addr]bool)
	}
	d.ipBlock[addr] = true
}

// IPFilter returns the in-path companion processor that enforces the
// device's IP blocklist. Unlike the wiretap, it can drop packets: IP
// blocking is implemented in the routing layer, not the DPI tap.
func (d *Device) IPFilter() netem.Processor { return &d.filter }

type ipFilter struct{ d *Device }

func (f *ipFilter) Name() string { return f.d.name + "-ipfilter" }

func (f *ipFilter) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	if f.d.ipBlock[pkt.IP.Src] || f.d.ipBlock[pkt.IP.Dst] {
		return netem.Drop
	}
	return netem.Pass
}
