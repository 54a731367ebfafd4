package core

import (
	"hash/fnv"

	"ballista/internal/catalog"
)

// DefaultCap is the paper's limit of 5000 test cases per Module under
// Test; MuTs whose full cross-product is smaller are tested exhaustively.
const DefaultCap = 5000

// Case is one test case: the chosen value index for each parameter.
type Case []int

// rng is a small deterministic PRNG (xorshift64*), so test case sampling
// is reproducible and independent of Go's rand package evolution.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// SeedFor derives the sampling seed from the MuT name only, so — as in
// the paper — "the same pseudorandom sampling of test cases was performed
// in the same order for each system call or C function tested across the
// different Windows variants", regardless of campaign order.
func SeedFor(mutName string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(mutName))
	return h.Sum64()
}

// CaseCount returns the size of the full cross-product, saturating at
// limit+1 to avoid overflow on many-parameter MuTs.
func CaseCount(sizes []int, limit int) int {
	if len(sizes) == 0 {
		return 1
	}
	total := 1
	for _, n := range sizes {
		if n <= 0 {
			return 0
		}
		total *= n
		if total > limit {
			return limit + 1
		}
	}
	return total
}

// GenerateCases produces the test case list for a MuT with the given
// per-parameter pool sizes: the exhaustive cross-product when it fits in
// cap, otherwise cap distinct pseudorandom cases drawn with the
// name-derived seed.
func GenerateCases(mutName string, sizes []int, cap int) []Case {
	if cap <= 0 {
		cap = DefaultCap
	}
	total := CaseCount(sizes, cap)
	if total <= cap {
		return exhaustive(sizes, total)
	}
	return sampled(mutName, sizes, cap)
}

// slab returns count cases of arity n cut from one backing array, each
// capped so an append to one cannot overwrite its neighbour.
func slab(count, n int) []Case {
	all := make([]int, count*n)
	out := make([]Case, count)
	for i := range out {
		out[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

func exhaustive(sizes []int, total int) []Case {
	out := slab(total, len(sizes))
	for k := 1; k < total; k++ {
		// Odometer increment of the previous case.
		c := out[k]
		copy(c, out[k-1])
		for i := len(sizes) - 1; i >= 0; i-- {
			c[i]++
			if c[i] < sizes[i] {
				break
			}
			c[i] = 0
		}
	}
	return out
}

func sampled(mutName string, sizes []int, cap int) []Case {
	r := newRNG(SeedFor(mutName))
	seen := make(map[[catalog.MaxParams]byte]bool, cap)
	out := slab(cap, len(sizes))
	// Pools hold well under 256 values, so one byte per parameter keys a
	// case uniquely.  A draw already seen is redrawn into the same slot.
	for k := 0; k < cap; {
		var key [catalog.MaxParams]byte
		c := out[k]
		for i, n := range sizes {
			c[i] = r.intn(n)
			key[i] = byte(c[i])
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		k++
	}
	return out
}
