// Package core implements the paper's primary contribution: the evasion
// strategies of §3 (existing), §5 (new: Resync+Desync, TCB Reversal)
// and §7 (improved and combined), together with the insertion-packet
// crafting machinery of §5.3 / Table 5. Strategies plug into an Engine
// that interposes between a client TCP stack and the network, the same
// position INTANG occupies with netfilter-queue.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"intango/internal/packet"
)

// Discrepancy is a way to make an insertion packet that the GFW
// processes but the server (or the path beyond the GFW) does not.
type Discrepancy int

// The discrepancies of §3.2 and Table 3/Table 5.
const (
	// DiscTTL caps the TTL so the packet dies between the GFW and the
	// server.
	DiscTTL Discrepancy = iota
	// DiscBadChecksum corrupts the TCP checksum; servers drop it, the
	// GFW does not validate (§3.4).
	DiscBadChecksum
	// DiscBadAck sets an acknowledgment number for data never sent;
	// servers ignore such segments (Table 3 row 5).
	DiscBadAck
	// DiscMD5 attaches an unsolicited RFC 2385 MD5 signature option
	// (Table 3 row 6); never dropped by middleboxes (§5.3).
	DiscMD5
	// DiscOldTimestamp carries a PAWS-stale timestamp (Table 3 row 9).
	DiscOldTimestamp
	// DiscNoFlag clears all TCP flags (Table 3 row 7).
	DiscNoFlag

	// DiscNone applies no discrepancy: the insertion packet is a plain,
	// well-formed packet that reaches the server (the West Chamber
	// baseline — exactly why the paper found that tool ineffective).
	DiscNone Discrepancy = -1
)

// String names the discrepancy as it appears in the paper's tables.
func (d Discrepancy) String() string {
	switch d {
	case DiscTTL:
		return "ttl"
	case DiscBadChecksum:
		return "bad-checksum"
	case DiscBadAck:
		return "bad-ack"
	case DiscMD5:
		return "md5"
	case DiscOldTimestamp:
		return "old-timestamp"
	case DiscNoFlag:
		return "no-flag"
	case DiscNone:
		return "none"
	default:
		return fmt.Sprintf("disc(%d)", int(d))
	}
}

// ParseDiscrepancy inverts Discrepancy.String — the spec parser's
// vocabulary for the disc= argument.
func ParseDiscrepancy(s string) (Discrepancy, bool) {
	for _, d := range []Discrepancy{DiscTTL, DiscBadChecksum, DiscBadAck, DiscMD5, DiscOldTimestamp, DiscNoFlag, DiscNone} {
		if d.String() == s {
			return d, true
		}
	}
	return 0, false
}

// PreferredDiscrepancies is Table 5: which insertion-packet
// constructions are usable for each packet type.
var PreferredDiscrepancies = map[string][]Discrepancy{
	"SYN":  {DiscTTL},
	"RST":  {DiscTTL, DiscMD5},
	"Data": {DiscTTL, DiscMD5, DiscBadAck, DiscOldTimestamp},
}

// Env carries the per-path crafting environment a strategy needs.
type Env struct {
	// InsertionTTL is the TTL that reaches the GFW but not the server
	// or server-side middleboxes — measured hop count minus δ (§7.1).
	InsertionTTL uint8
	// Repeat is how many times each insertion packet is re-sent to
	// survive loss (§3.4: thrice with 20 ms intervals).
	Repeat int
	// RepeatGap is the spacing between repeats.
	RepeatGap time.Duration
	// Rand drives randomized field values deterministically.
	Rand *rand.Rand
}

// DefaultEnv returns the crafting environment the paper's measurements
// used: TTL-based insertion with three repeats 20 ms apart.
func DefaultEnv(insertionTTL uint8, rng *rand.Rand) Env {
	return Env{InsertionTTL: insertionTTL, Repeat: 3, RepeatGap: 20 * time.Millisecond, Rand: rng}
}

// Apply applies a discrepancy to a crafted packet in place and
// finalizes it. The packet must be a TCP packet.
func (e *Env) Apply(pkt *packet.Packet, d Discrepancy) *packet.Packet {
	switch d {
	case DiscTTL:
		pkt.IP.TTL = e.InsertionTTL
		pkt.Finalize()
	case DiscBadChecksum:
		pkt.Finalize()
		pkt.TCP.Checksum ^= 0x5555
		pkt.BadTCPChecksum = true
	case DiscBadAck:
		pkt.TCP.Flags |= packet.FlagACK
		pkt.TCP.Ack = pkt.TCP.Ack.Add(1 << 22)
		pkt.Finalize()
	case DiscMD5:
		var digest [16]byte
		e.Rand.Read(digest[:])
		pkt.TCP.Options = append(pkt.TCP.Options, packet.MD5Option(digest))
		pkt.Finalize()
	case DiscOldTimestamp:
		opts := pkt.TCP.Options[:0]
		for _, o := range pkt.TCP.Options {
			if o.Kind != packet.OptTimestamps {
				opts = append(opts, o)
			}
		}
		pkt.TCP.Options = append(opts, packet.TimestampOption(1, 0))
		pkt.Finalize()
	case DiscNoFlag:
		pkt.TCP.Flags = 0
		pkt.Finalize()
	case DiscNone:
		pkt.Finalize()
	}
	return pkt
}

// fillJunk overwrites b with keyword-free filler, ABCDEFGHIJKLM
// repeated, and returns it: it writes the pattern once, then keeps
// doubling the written prefix into the rest.
func fillJunk(b []byte) []byte {
	for n := copy(b, "ABCDEFGHIJKLM"); n < len(b); {
		n += copy(b[n:], b[:n])
	}
	return b
}
