package experiment

import (
	"math/rand"

	"intango/internal/netem"
	"intango/internal/packet"
)

// arena is what a trial's build draws on: the runner's packet pool, a
// simulator, and the pair sources. A campaign worker keeps one arena
// (newArena) for every trial it runs, so each trial resets and reseeds
// the worker's simulator in place and replays its pair's memoized
// draws, instead of allocating two 4.9 KB RNG sources and seeding both.
// Everything else a trial builds against the simulator — fabric,
// stacks, engine, devices, recorder — is still new per trial and is
// dead once the trial is absorbed, before the next reset. An arena
// serves one goroutine at a time and needs no lock.
//
// A one-shot arena (oneShot) recycles nothing: its build allocates a
// simulator and draws its pair from a fresh source, as a trial did
// before arenas. The serial reference loop (RunTable1, through RunOne)
// runs on one-shot arenas, so the campaign executor's recycled trials
// are checked against fresh ones.
type arena struct {
	pool *packet.Pool
	sim  *netem.Simulator
	// pairs maps a pair seed to the draws taken from its source so far;
	// nil in a one-shot arena.
	pairs map[int64][]float64
}

// oneShot returns an arena for a single build.
func (r *Runner) oneShot() *arena { return &arena{pool: r.packetPool()} }

// newArena returns a campaign worker's recycling arena.
func (r *Runner) newArena() *arena {
	return &arena{pool: r.packetPool(), pairs: make(map[int64][]float64)}
}

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

// pairDraws returns a trial's pair source for pair seed: a cursor that
// starts at the arena's memo of the pair's draws.
func (a *arena) pairDraws(seed int64) pairDraws {
	return pairDraws{seed: seed, draws: a.pairs[seed], memo: a.pairs}
}

// pairDrawChunk is how far past a trial's read a pair's draws are
// taken when they must grow: a censor device takes two, so one chunk
// covers every derived topology.
const pairDrawChunk = 8

// pairDraws replays one pair source's Float64 stream from its draws
// taken so far. A source's k-th draw depends only on its seed and k,
// so the replay hands a trial exactly the draws a fresh source would.
// When a trial reads past them, they are taken again, further, from a
// fresh source and stored back in memo (nil in a one-shot arena, which
// keeps nothing).
type pairDraws struct {
	seed  int64
	k     int
	draws []float64
	memo  map[int64][]float64
}

// Float64 returns the pair source's next draw.
func (p *pairDraws) Float64() float64 {
	if p.k == len(p.draws) {
		src := rand.New(rand.NewSource(p.seed))
		p.draws = make([]float64, p.k+pairDrawChunk)
		for i := range p.draws {
			p.draws[i] = src.Float64()
		}
		if p.memo != nil {
			p.memo[p.seed] = p.draws
		}
	}
	p.k++
	return p.draws[p.k-1]
}
