package netem

import (
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand draws 2,000 values from a Source and from
// math/rand's own source for each of 640 seeds —
// zero, negative seeds, 2³¹−1 and its neighbours, seeds past 2³¹ and
// the extremes among them — reseeding one Source and one rand.Rand in
// place between seeds, as Simulator.Reset and a campaign arena do. The
// draws mix Uint64, Int63, Float64 and Intn through rand.Rand with the
// Source's own Float64 (the arena's pair source), so both the raw words
// and every path over them are compared; after the first seed
// every reseed lands on a state a previous stream moved, either partly
// drawn or drawn far past the state's first pass.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 42, -42, lcgMod, lcgMod - 1, lcgMod + 1, -lcgMod, 2 * lcgMod,
		1 << 31, 1<<31 + 1, 1 << 32, 1<<40 + 7, -(1 << 40), 89482311, 1<<63 - 1, -1 << 63}
	gen := rand.New(rand.NewSource(7))
	for len(seeds) < 640 {
		seeds = append(seeds, int64(gen.Uint64()), gen.Int63n(1<<31), -gen.Int63n(1<<31))
	}
	src := NewSource(99)
	lazy := rand.New(src)
	lazy.Int63()
	for si, seed := range seeds {
		// Every third seed's stream is first abandoned inside the
		// state's first pass, so its reseed meets words no draw has
		// computed yet.
		runs := []int{2000}
		if si%3 == 1 {
			runs = []int{si % 400, 2000}
		}
		for _, n := range runs {
			lazy.Seed(seed)
			ref := rand.New(rand.NewSource(seed))
			for k := 0; k < n; k++ {
				var got, want any
				switch k % 5 {
				case 0:
					got, want = lazy.Uint64(), ref.Uint64()
				case 1:
					got, want = lazy.Int63(), ref.Int63()
				case 2:
					got, want = lazy.Float64(), ref.Float64()
				case 3:
					got, want = src.Float64(), ref.Float64()
				default:
					got, want = lazy.Intn(1000), ref.Intn(1000)
				}
				if got != want {
					t.Fatalf("seed %d draw %d: Source gives %v, math/rand %v", seed, k, got, want)
				}
			}
		}
	}
}

// TestSimulatorRandIsMathRand pins the simulator's stream to math/rand's
// for the seed it was built or reset with.
func TestSimulatorRandIsMathRand(t *testing.T) {
	s := NewSimulator(5)
	for _, seed := range []int64{5, -9, 1 << 33} {
		s.Reset(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < 700; k++ {
			if got, want := s.Rand().Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: simulator %v, math/rand %v", seed, k, got, want)
			}
		}
	}
}

// BenchmarkSourceReseed is the trial RNG's cost in a campaign: a
// reseed and the 47 draws a Table 1 trial takes on average, through
// the lazy source and through math/rand's.
func BenchmarkSourceReseed(b *testing.B) {
	for _, bc := range []struct {
		name string
		rng  *rand.Rand
	}{{"lazy", rand.New(NewSource(1))}, {"mathrand", rand.New(rand.NewSource(1))}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.rng.Seed(int64(i))
				for k := 0; k < 47; k++ {
					bc.rng.Float64()
				}
			}
		})
	}
}
