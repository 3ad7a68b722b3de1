// Package gfw implements executable models of the Great Firewall's
// on-path DPI devices: the "old" model inferred by Khattak et al.
// (FOCI '13) and the "evolved" model this paper infers in §4
// (Hypothesized New Behaviors 1–3), together with the type-1 and type-2
// reset injectors, the 90-second pair blocklist with forged SYN/ACKs,
// UDP DNS poisoning, and Tor/VPN flow identification (§7.3).
//
// A Device is attached to a netem hop as an on-path tap: it observes
// every packet, keeps shadow TCBs, and injects forged packets toward
// both endpoints — it can never drop traffic (§2.1). IP-level blocking
// of active-probed Tor bridges is the one in-path behaviour, exposed
// separately via Device.IPFilter.
package gfw

import (
	"time"

	"intango/internal/packet"
)

// Model selects which inferred GFW state machine a device runs.
type Model int

const (
	// ModelKhattak2013 is the prior model: TCB created only on SYN,
	// torn down by RST/RST-ACK/FIN, no resynchronization state.
	ModelKhattak2013 Model = iota
	// ModelEvolved2017 is the model inferred in §4: TCB also created on
	// SYN/ACK, a resynchronization state entered on ambiguous
	// handshakes, FIN never tears down, RST only sometimes does.
	ModelEvolved2017
)

// String names the model.
func (m Model) String() string {
	if m == ModelKhattak2013 {
		return "khattak-2013"
	}
	return "evolved-2017"
}

// Config parameterizes a Device. NewDevice fills zero fields with the
// paper's measured defaults.
type Config struct {
	Model Model

	// Type1 and Type2 select the reset-injector types this device
	// carries. The two usually exist together (§2.1); occasionally one
	// is down, which the experiments exploit to tell them apart.
	Type1 bool
	Type2 bool

	// Keywords is the sensitive-keyword blacklist for the rule-based
	// detection engine.
	Keywords []string
	// PoisonedDomains is the DNS censorship list (suffix match).
	PoisonedDomains []string
	// PoisonedAddr is the forged address DNS poisoning answers with;
	// zero means the well-known PoisonAddr pool address.
	PoisonedAddr packet.Addr

	// BlockDuration is the post-detection pair-blocklist period —
	// 90 seconds as measured in §2.1. Only type-2 devices enforce it.
	BlockDuration time.Duration
	// DetectionMissProb is the probability a flow escapes detection
	// entirely (GFW overload — the persistent 2.8% no-strategy success
	// rate of §3.4, first documented in 2007).
	DetectionMissProb float64
	// ResyncOnRSTProb is the probability — sampled once per device,
	// because the paper found the behaviour consistent per pair within
	// a period (§4) — that a RST sends the evolved TCB to the
	// resynchronization state instead of tearing it down.
	ResyncOnRSTProb float64
	// SegmentLastWinsProb is the probability (sampled per device) that
	// overlapping out-of-order TCP segments are resolved in favour of
	// the newest copy, the behaviour Khattak et al. reported; the
	// complement models evolved devices that now keep the first copy,
	// which is why the out-of-order strategy has a high Failure-2 rate
	// in Table 1.
	SegmentLastWinsProb float64

	// ReassemblyWindow bounds the client→server stream buffer.
	ReassemblyWindow int

	// TorFiltering enables Tor fingerprinting + active-probe IP
	// blocking; §7.3 found it absent on paths from Northern China.
	TorFiltering bool
	// VPNFiltering enables OpenVPN-over-TCP DPI resets (observed
	// November 2016, discontinued by the time of the paper's later
	// measurements).
	VPNFiltering bool
	// ActiveProbeDelay is how long after fingerprinting a Tor bridge
	// the active prober confirms and the IP is null-routed.
	ActiveProbeDelay time.Duration

	// ResetSeqOffsets are the type-2 sequence offsets: one RST/ACK at
	// X, X+1460, X+4380 (§2.1).
	ResetSeqOffsets []int

	// ResponseCensorship also scans server→client data. Backbone-level
	// response filtering was discontinued (Park & Crandall 2010), but
	// §3.3 found devices on some paths still detect keywords copied
	// into HTTP 301 Location headers — the reason the study excluded
	// HTTPS-default websites.
	ResponseCensorship bool

	// --- §8 countermeasure ablations. The measured GFW does none of
	// these; each is a hardening the paper discusses, implemented so
	// the arms race can be explored. ---

	// ValidateTCPChecksum drops bad-checksum packets before tracking
	// (kills the bad-checksum insertion family).
	ValidateTCPChecksum bool
	// ValidateMD5 ignores packets carrying unsolicited MD5 options
	// (kills the MD5 insertion family — but, as §8 notes, opens a new
	// evasion: an MD5-tagged *real* request is now invisible to the
	// GFW yet accepted by servers that don't check the option).
	ValidateMD5 bool
	// TrustDataAfterServerACK defers scanning of client data until the
	// server has acknowledged it — the "potential improvement" of §8
	// that defeats prefill and desynchronization at the cost of much
	// heavier per-flow state.
	TrustDataAfterServerACK bool
}

// defaultResetSeqOffsets are the measured type-2 offsets, shared
// read-only by every configuration that leaves them unset.
var defaultResetSeqOffsets = []int{0, 1460, 4380}

// withDefaults fills unset fields with the paper's measured values.
func (c Config) withDefaults() Config {
	if c.BlockDuration == 0 {
		c.BlockDuration = 90 * time.Second
	}
	if c.DetectionMissProb == 0 {
		c.DetectionMissProb = 0.028
	}
	if c.ReassemblyWindow == 0 {
		c.ReassemblyWindow = 64 * 1024
	}
	if c.ActiveProbeDelay == 0 {
		c.ActiveProbeDelay = 10 * time.Second
	}
	if c.ResetSeqOffsets == nil {
		c.ResetSeqOffsets = defaultResetSeqOffsets
	}
	if c.PoisonedAddr == (packet.Addr{}) {
		c.PoisonedAddr = PoisonAddr
	}
	if !c.Type1 && !c.Type2 {
		c.Type1, c.Type2 = true, true
	}
	return c
}
