package stats

import "math/rand"

// Reservoir maintains a fixed-size uniform random sample of a stream using
// Vitter's algorithm R. The skew detector (paper Section V) uses it on each
// mapper to sample the records it acquires before the simulated dispatch.
type Reservoir[T any] struct {
	items []T
	cap   int
	seen  int64
	rng   *rand.Rand
}

// NewReservoir returns a reservoir sampler holding at most capacity items,
// driven by the given seed (deterministic across runs).
func NewReservoir[T any](capacity int, seed int64) *Reservoir[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir[T]{cap: capacity, rng: rand.New(rand.NewSource(seed))}
}

// Add offers one stream element to the reservoir.
func (r *Reservoir[T]) Add(item T) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, item)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.items[j] = item
	}
}

// Sample returns the current sample. The slice aliases the reservoir's
// internal storage and must not be mutated while sampling continues.
func (r *Reservoir[T]) Sample() []T { return r.items }

// MonteCarloMaxBinCount estimates E[max bin count] for n balls in m bins by
// simulation with the given number of trials. Tests use it to validate
// ExpectedMaxBinCount; the optimizer never calls it.
func MonteCarloMaxBinCount(n, m, trials int, seed int64) float64 {
	if n <= 0 || m <= 0 || trials <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, m)
	var total float64
	for t := 0; t < trials; t++ {
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			counts[rng.Intn(m)]++
		}
		mx := 0
		for _, c := range counts {
			if c > mx {
				mx = c
			}
		}
		total += float64(mx)
	}
	return total / float64(trials)
}
