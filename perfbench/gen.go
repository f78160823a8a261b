package main

import (
	"math"
	"math/rand/v2"

	"ewh/internal/join"
)

// The benchmark owns its input generation: inputs come from math/rand/v2's
// PCG seeded by (seed, op index, stream), never from the program's own
// generators, so a change to the program cannot change the inputs it is
// measured on.

// warmOp offsets the op index of warm-up inputs so they never coincide with
// a timed op's inputs.
const warmOp = 1 << 40

// opRNG returns the generator of one op's inputs: the same (seed, op,
// stream) always yields the same sequence.
func opRNG(seed uint64, op int, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(op)<<8|stream))
}

// zipf draws keys in [0, n) with P(k) proportional to 1/(k+1)^z by inverting
// the exact CDF. guide[g] is the first key whose CDF reaches g/n, so a draw
// starts its search next to its answer.
type zipf struct {
	cdf   []float64
	guide []int32
}

func newZipf(n int, z float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -z)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	guide := make([]int32, n)
	k := 0
	for g := range guide {
		for cdf[k] < float64(g)/float64(n) {
			k++
		}
		guide[g] = int32(k)
	}
	return &zipf{cdf: cdf, guide: guide}
}

// fill overwrites dst with independent draws.
func (z *zipf) fill(dst []join.Key, rng *rand.Rand) {
	n := float64(len(z.cdf))
	for i := range dst {
		u := rng.Float64()
		k := int(z.guide[int(u*n)])
		for z.cdf[k] < u {
			k++
		}
		dst[i] = join.Key(k)
	}
}

// fillUniform overwrites dst with keys drawn uniformly from [lo, lo+span).
func fillUniform(dst []join.Key, lo, span int64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = lo + rng.Int64N(span)
	}
}
