package sim

import (
	"math/rand"
	"testing"
)

// sourceSeeds covers the seed folding: zero (math/rand's fixed
// substitute), negatives, the modulus itself and values past it.
var sourceSeeds = []int64{0, 1, -1, 2, 42, 1000003, 1<<31 - 1, 1 << 31, -1 << 40, 89482311, 15000052}

// TestSourceMatchesMathRand pins the engine's random stream to
// math/rand's: for every seed, 5,000 raw draws of the source and 5,000
// Float64, Int63n and NormFloat64 draws through Rand equal those of
// rand.NewSource with the same seed, on a fresh engine and on one Reset
// from another seed.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 5000
	for _, seed := range sourceSeeds {
		var s source
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: raw draw %d = %#x, math/rand %#x", seed, i, got, want)
			}
		}
		reset := New(seed + 7)
		reset.Rand().Int63()
		reset.Reset(seed)
		for _, e := range []*Engine{New(seed), reset} {
			r, ref := e.Rand(), rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if got, want := r.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i, got, want)
				}
				if got, want := r.Int63n(1000003), ref.Int63n(1000003); got != want {
					t.Fatalf("seed %d: Int63n draw %d = %d, math/rand %d", seed, i, got, want)
				}
				if got, want := r.NormFloat64(), ref.NormFloat64(); got != want {
					t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, i, got, want)
				}
			}
		}
	}
}

// TestSourceFloat64MatchesRand checks the direct Float64 that Jitter and
// Bernoulli use against rand.Rand's on the same source state.
func TestSourceFloat64MatchesRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		var s source
		s.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i, got, want)
			}
		}
	}
}

// BenchmarkSeed times one seeding of the engine's source against
// math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		var s source
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
