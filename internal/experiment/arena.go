package experiment

import (
	"intango/internal/netem"
	"intango/internal/packet"
)

// arena is what a trial's build draws on: the runner's packet pool, a
// simulator, and the pair source. A campaign worker keeps one arena
// (newArena) for every trial it runs, so each trial resets the worker's
// simulator and reseeds both RNGs in place, instead of allocating two
// 4.9 KB RNG sources. Both are netem.Sources, which reseed in constant
// time and yield math/rand's stream for the seed. Everything else a
// trial builds against the simulator — fabric, stacks, engine, devices,
// recorder — is still new per trial and is dead once the trial is
// absorbed, before the next reset. An arena serves one goroutine at a
// time and needs no lock.
//
// One-shot callers (RunOne, and so the serial reference loop
// RunTable1) build on a new arena each time, so the campaign
// executor's recycled trials are checked against fresh ones. The
// goodput matrix runs all its uploads on one arena.
type arena struct {
	pool *packet.Pool
	sim  *netem.Simulator
	pair *netem.Source
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
