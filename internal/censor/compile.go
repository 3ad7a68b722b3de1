package censor

import (
	"fmt"
	"math/rand"
	"time"

	"intango/internal/gfw"
	"intango/internal/middlebox"
	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
)

// Instance is one live censor device: an on-path tap (it can observe
// and inject but never drop) plus an optional in-path companion filter
// that enforces residual state — IP null-routes for the GFW engine,
// flow blackholes for the inline blocker. Both gfw.Device and Blocker
// implement it, so the experiment rig holds censors uniformly.
type Instance interface {
	netem.Processor
	// Filter returns the censor's in-path companion processor, nil when
	// the censor has none.
	Filter() netem.Processor
	// SetObs mirrors device events into the shared observability layer.
	SetObs(*obs.Obs)
	// Stat returns the count of one event kind.
	Stat(kind string) int
	// ClearStats resets the event counters (series runners reuse one
	// device across trials).
	ClearStats()
	// Marks returns the span-profiling stamps: first packet seen, first
	// enforcement verdict (zero if never enforced), last packet seen.
	Marks() (first, verdict, last time.Duration)
}

// Kind classifies what a spec compiles to.
type Kind int

const (
	// KindEngine: the spec has a tcb: statement and lowers onto the
	// stateful internal/gfw engine (tap + IP-filter companion).
	KindEngine Kind = iota
	// KindInline: a tcb-less detect/react spec lowering onto the
	// stateless bidirectional Blocker (tap + flow-filter companion).
	KindInline
	// KindChain: a filter-only spec lowering onto an in-path
	// middlebox processor chain (no tap, no device).
	KindChain
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindEngine:
		return "engine"
	case KindInline:
		return "inline"
	default:
		return "chain"
	}
}

// Compiled is a validated, lowered censor spec ready to stamp out
// per-trial instances. Compilation is pure — Attach draws all sampled
// behaviour from the RNGs it is handed — so one Compiled is cached and
// shared across every trial and worker.
type Compiled struct {
	spec Spec
	kind Kind
	cfg  gfw.Config    // KindEngine lowering
	blk  BlockerConfig // KindInline lowering
}

// Spec returns the compiled spec.
func (c *Compiled) Spec() Spec { return c.spec }

// Kind reports the compilation target.
func (c *Compiled) Kind() Kind { return c.kind }

// GFWConfig returns the lowered gfw.Config; ok is false unless the
// spec compiles to the stateful engine.
func (c *Compiled) GFWConfig() (gfw.Config, bool) {
	return c.cfg, c.kind == KindEngine
}

// Attach resolves ref (a registry name or raw censor-spec text),
// builds one live instance of it named name and puts it on node. It is
// the one place a compiled censor joins a world.
//
// A device censor contributes its on-path tap and, when filter is set,
// its in-path companion (Filter) after the node's processors; a caller
// that places the companion itself, as a topology's ipf: reference
// does, passes false. A filter-only censor contributes its middlebox
// chain as processors, and Attach returns a nil Instance.
//
// The trial RNG drives per-flow sampled behaviour; the pair source pins
// the per-(client, server) behaviours the paper found stable within a
// measurement period (§4) — engine devices draw their RST-resync and
// segment-overlap modes from it. Only its Float64 stream is read, so a
// *rand.Rand or a netem.Source will do.
func Attach(node *netem.Node, ref, name string, filter bool, trialRng *rand.Rand, pairRng interface{ Float64() float64 }) (Instance, error) {
	return (*Spares)(nil).Attach(node, ref, name, filter, trialRng, pairRng)
}

// Spares keeps the censor instances a world rebuilt for each trial (a
// campaign worker's rig) attaches, so that each rebuild resets them in
// place instead of building new ones. Rewind, at each rebuild, hands
// them out again in the order they were first asked for. A nil
// *Spares builds every instance new.
type Spares struct {
	devices  netem.Spares[gfw.Device]
	blockers netem.Spares[Blocker]
}

// Rewind takes back every instance s handed out: they are dead.
func (s *Spares) Rewind() {
	s.devices.Rewind()
	s.blockers.Rewind()
}

// Device returns a GFW device for the caller to Reset: a spare one, or
// a new one kept for the next rebuild.
func (s *Spares) Device() *gfw.Device {
	if s == nil {
		return new(gfw.Device)
	}
	return s.devices.Get(true)
}

// blocker is Device for the inline blocker.
func (s *Spares) blocker() *Blocker {
	if s == nil {
		return new(Blocker)
	}
	return s.blockers.Get(true)
}

// Attach is the package's Attach, resetting a spare instance when s
// has one of the censor's kind.
func (s *Spares) Attach(node *netem.Node, ref, name string, filter bool, trialRng *rand.Rand, pairRng interface{ Float64() float64 }) (Instance, error) {
	c, err := Resolve(ref)
	if err != nil {
		return nil, err
	}
	var inst Instance
	switch c.kind {
	case KindEngine:
		dev := s.Device()
		dev.Reset(name, c.cfg, trialRng)
		dev.SetRSTResyncs(pairRng.Float64() < c.cfg.ResyncOnRSTProb)
		dev.SetSegmentLastWins(pairRng.Float64() < c.cfg.SegmentLastWinsProb)
		inst = dev
	case KindInline:
		blk := s.blocker()
		blk.Reset(name, c.blk, trialRng)
		inst = blk
	default:
		for _, f := range c.spec.Filters {
			node.Processors = append(node.Processors, chainFilter(f, trialRng))
		}
		return nil, nil
	}
	node.Taps = append(node.Taps, inst)
	if filter {
		node.Processors = append(node.Processors, inst.Filter())
	}
	return inst, nil
}

// chainFilter builds the middlebox processor of one filter: statement.
func chainFilter(f Filter, rng *rand.Rand) netem.Processor {
	switch f.Kind {
	case "fragdrop":
		return middlebox.FragmentDropper{}
	case "reassemble":
		return middlebox.NewFragmentReassembler()
	case "checksum":
		return middlebox.ChecksumValidator{}
	case "flagless":
		return middlebox.FlaglessDropper{}
	}
	flag, name := packet.FlagFIN, "fin-dropper"
	if f.Flag == "rst" {
		flag, name = packet.FlagRST, "rst-dropper"
	}
	return middlebox.NewFlagDropper(name, flag, f.P, rng)
}

// Compile validates the spec's composition and lowers it onto its
// target. The grammar is deliberately wider than any one target: the
// stateful engine cannot blackhole (its wiretap position can only
// inject, §2.1), the stateless blocker has no TCBs to reset, and
// filter chains carry no detection at all — Compile is where those
// rules live, with error messages naming the offending statement.
func Compile(spec Spec) (*Compiled, error) {
	c := &Compiled{spec: spec}
	if len(spec.Filters) > 0 {
		if spec.TCB != "" || len(spec.Detects) > 0 || len(spec.Reacts) > 0 ||
			len(spec.Hardens) > 0 || len(spec.Params) > 0 {
			return nil, fmt.Errorf("censor: filter: statements cannot mix with tcb/detect/react (middlebox chains do not detect)")
		}
		c.kind = KindChain
		return c, nil
	}
	if len(spec.Detects) == 0 {
		return nil, fmt.Errorf("censor: no detection rules (want at least one detect: or filter: statement)")
	}
	if len(spec.Reacts) == 0 {
		return nil, fmt.Errorf("censor: no reactions (a censor that only watches needs at least one react: statement)")
	}
	if spec.TCB != "" {
		c.kind = KindEngine
		return c, c.lowerEngine()
	}
	c.kind = KindInline
	return c, c.lowerInline()
}

// lowerEngine maps the spec onto gfw.Config.
func (c *Compiled) lowerEngine() error {
	spec := c.spec
	cfg := gfw.Config{Model: gfw.ModelEvolved2017}
	if spec.TCB == "khattak" {
		cfg.Model = gfw.ModelKhattak2013
	}
	probed, torDetect := false, false
	for _, d := range spec.Detects {
		switch d.Kind {
		case "keywords":
			cfg.Keywords = append(cfg.Keywords, d.Words...)
			if d.Both {
				cfg.ResponseCensorship = true
			}
		case "dns":
			cfg.PoisonedDomains = append(cfg.PoisonedDomains, d.Words...)
		case "proto":
			if d.Words[0] == "tor" {
				cfg.TorFiltering = true
				torDetect = true
			} else {
				cfg.VPNFiltering = true
			}
		case "host":
			return fmt.Errorf("censor: detect:host requires a tcb-less inline censor (the engine's DPI is keyword-based)")
		}
	}
	for _, r := range spec.Reacts {
		switch r.Kind {
		case "reset":
			if r.Type == 1 {
				if cfg.Type1 {
					return fmt.Errorf("censor: duplicate react:reset(type1)")
				}
				cfg.Type1 = true
			} else {
				if cfg.Type2 {
					return fmt.Errorf("censor: duplicate react:reset(type2)")
				}
				cfg.Type2 = true
				cfg.ResetSeqOffsets = r.Offsets
			}
		case "block":
			if cfg.BlockDuration != 0 {
				return fmt.Errorf("censor: duplicate react:block")
			}
			cfg.BlockDuration = r.Dur
		case "probe":
			if cfg.ActiveProbeDelay != 0 {
				return fmt.Errorf("censor: duplicate react:probe")
			}
			cfg.ActiveProbeDelay = r.Delay
			probed = true
		case "poison":
			if len(cfg.PoisonedDomains) == 0 {
				return fmt.Errorf("censor: react:poison requires a detect:dns domain list")
			}
			if r.HasIP {
				cfg.PoisonedAddr = r.IP
			}
		case "drop":
			return fmt.Errorf("censor: react:drop requires a tcb-less inline censor (the engine's wiretap can inject but never drop)")
		}
	}
	if !cfg.Type1 && !cfg.Type2 {
		return fmt.Errorf("censor: a tcb: engine needs at least one react:reset injector")
	}
	if cfg.BlockDuration != 0 && !cfg.Type2 {
		return fmt.Errorf("censor: react:block requires react:reset(type2) (only type-2 devices enforce the pair blocklist)")
	}
	if probed && !torDetect {
		return fmt.Errorf("censor: react:probe requires detect:proto(tor)")
	}
	if torDetect && !probed {
		return fmt.Errorf("censor: detect:proto(tor) requires react:probe(delay=D)")
	}
	for _, h := range spec.Hardens {
		switch h {
		case "checksum":
			cfg.ValidateTCPChecksum = true
		case "md5":
			cfg.ValidateMD5 = true
		case "trustack":
			cfg.TrustDataAfterServerACK = true
		}
	}
	for _, p := range spec.Params {
		switch p.Kind {
		case "miss":
			// p=0 means "never misses": -1 defeats the zero-means-default
			// convention of gfw.Config.withDefaults.
			cfg.DetectionMissProb = p.P
			if p.P == 0 {
				cfg.DetectionMissProb = -1
			}
		case "resync":
			cfg.ResyncOnRSTProb = p.P
		case "seglastwins":
			cfg.SegmentLastWinsProb = p.P
		}
	}
	c.cfg = cfg
	return nil
}

// lowerInline maps the spec onto BlockerConfig.
func (c *Compiled) lowerInline() error {
	spec := c.spec
	var blk BlockerConfig
	for _, d := range spec.Detects {
		switch d.Kind {
		case "keywords":
			blk.Keywords = append(blk.Keywords, d.Words...)
			if d.Both {
				blk.Bidirectional = true
			}
		case "dns":
			blk.Domains = append(blk.Domains, d.Words...)
		case "host":
			blk.Hosts = append(blk.Hosts, d.Words...)
		case "proto":
			return fmt.Errorf("censor: detect:proto requires a tcb: engine (fingerprinting needs stream reassembly)")
		}
	}
	for _, r := range spec.Reacts {
		switch r.Kind {
		case "drop":
			if blk.BlockDuration != 0 {
				return fmt.Errorf("censor: duplicate react:drop")
			}
			blk.BlockDuration = r.Dur
		case "poison":
			if len(blk.Domains) == 0 {
				return fmt.Errorf("censor: react:poison requires a detect:dns domain list")
			}
			blk.PoisonDNS = true
			if r.HasIP {
				blk.PoisonAddr = r.IP
			}
		case "reset":
			return fmt.Errorf("censor: react:reset requires a tcb: engine (reset volleys are aimed by TCB state)")
		case "block":
			return fmt.Errorf("censor: react:block requires a tcb: engine (inline censors blackhole with react:drop)")
		case "probe":
			return fmt.Errorf("censor: react:probe requires a tcb: engine")
		}
	}
	if blk.BlockDuration == 0 {
		return fmt.Errorf("censor: an inline censor needs react:drop(dur=D) (detection without a drop has no effect)")
	}
	if len(spec.Hardens) > 0 {
		return fmt.Errorf("censor: harden:%s requires a tcb: engine", spec.Hardens[0])
	}
	if len(spec.Params) > 0 {
		return fmt.Errorf("censor: param:%s requires a tcb: engine", spec.Params[0].Kind)
	}
	c.blk = blk
	return nil
}
