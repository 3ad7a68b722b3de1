package experiment

import (
	"intango/internal/netem"
	"intango/internal/packet"
)

// arena is what a trial's build draws on: the runner's packet pool, a
// simulator, the pair source and the rig. A campaign worker keeps one
// arena (newArena) for every trial it runs, and the goodput matrix one
// for all its uploads: each trial resets the simulator, reseeds both
// RNGs (netem.Sources, which reseed in constant time and yield
// math/rand's stream for the seed) and rebuilds the rig in place. The
// rig's fabric, stacks, engine and HTTP server are reset (each type's
// Reset, which on a zero value is its constructor, so a fresh rig and a
// recycled one run one initialisation path), and so are the GFW
// devices and middleboxes its topology binds, which come from the
// rig's spares. From the second trial on, the simulator lends, and the
// models on it keep what they make per trial for the next one: the
// stacks' connections, the engine's flows, the devices' TCBs with
// their streams (netem.Spares). So a warmed arena's trial allocates
// nothing. Everything a trial built is dead once the arena builds
// again; a sink copies out what it keeps before that. The checked
// build zeroes each object spares take back (connections, flows, TCBs,
// devices, middleboxes) and never hands it out again, so a reference
// that outlived its trial reads zeros. An arena serves one goroutine
// at a time and needs no lock.
//
// One-shot callers (RunOne, and so the serial reference loop
// RunTable1, RunINTANGSeries, the figures) build on a new arena each
// time, so the campaign executor's recycled trials are checked against
// fresh ones.
type arena struct {
	pool *packet.Pool
	sim  *netem.Simulator
	pair *netem.Source
	rig  rig
}

// newArena returns an empty arena.
func (r *Runner) newArena() *arena { return &arena{pool: r.packetPool()} }

// simulator returns the arena's simulator seeded for a new trial: made
// on first use, reset in place after.
func (a *arena) simulator(seed int64) *netem.Simulator {
	if a.sim == nil {
		a.sim = netem.NewSimulator(seed)
	} else {
		a.sim.Reset(seed)
	}
	return a.sim
}

// pairSource returns the arena's pair source seeded for a new trial's
// pair: made on first use, reseeded in place after.
func (a *arena) pairSource(seed int64) *netem.Source {
	if a.pair == nil {
		a.pair = netem.NewSource(seed)
	} else {
		a.pair.Seed(seed)
	}
	return a.pair
}
