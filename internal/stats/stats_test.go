package stats

import (
	"math"
	"testing"
)

func TestNormalMaxMeanMonotone(t *testing.T) {
	prev := 0.0
	for m := 2; m <= 4096; m *= 2 {
		v := NormalMaxMean(m)
		if v <= prev {
			t.Fatalf("NormalMaxMean not increasing at m=%d: %v <= %v", m, v, prev)
		}
		prev = v
	}
}

func TestNormalMaxMeanSmall(t *testing.T) {
	if got := NormalMaxMean(0); got != 0 {
		t.Errorf("NormalMaxMean(0) = %v, want 0", got)
	}
	if got := NormalMaxMean(1); got != 0 {
		t.Errorf("NormalMaxMean(1) = %v, want 0", got)
	}
	want := 1 / math.Sqrt(math.Pi)
	if got := NormalMaxMean(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("NormalMaxMean(2) = %v, want %v", got, want)
	}
}

func TestExpectedMaxBinCountAgainstMonteCarlo(t *testing.T) {
	cases := []struct{ n, m int }{
		{1000, 10},
		{5000, 50},
		{20000, 100},
		{500, 5},
	}
	for _, c := range cases {
		approx := ExpectedMaxBinCount(c.n, c.m)
		mc := MonteCarloMaxBinCount(c.n, c.m, 300, 42)
		rel := math.Abs(approx-mc) / mc
		if rel > 0.10 {
			t.Errorf("n=%d m=%d: approx %.1f vs monte carlo %.1f (rel err %.3f)",
				c.n, c.m, approx, mc, rel)
		}
	}
}

func TestExpectedMaxBinCountBounds(t *testing.T) {
	if got := ExpectedMaxBinCount(100, 1); got != 100 {
		t.Errorf("single bin: got %v, want 100", got)
	}
	if got := ExpectedMaxBinCount(0, 10); got != 0 {
		t.Errorf("no balls: got %v, want 0", got)
	}
	// Expected max is at least the mean and at most n.
	if got := ExpectedMaxBinCount(1000, 10); got < 100 || got > 1000 {
		t.Errorf("out of bounds: %v", got)
	}
}

func TestHeaviestWorkloadMonotoneInRegions(t *testing.T) {
	// Paper Section IV-A: Formula (2) decreases monotonically as n_G grows,
	// which justifies preferring the most specific feasible key.
	const N, m = 1_000_000, 50
	prev := math.Inf(1)
	for _, nG := range []int{100, 500, 1000, 5000, 50_000, 500_000} {
		w := HeaviestWorkload(N, nG, m)
		if w > prev+1e-9 {
			t.Fatalf("workload increased at nG=%d: %v > %v", nG, w, prev)
		}
		if w < float64(N)/float64(m)-1e-9 {
			t.Fatalf("workload below perfect balance at nG=%d: %v", nG, w)
		}
		prev = w
	}
}

func TestOverlapHeaviestWorkloadUShape(t *testing.T) {
	// Formula (4) should be high at cf=1 (duplication) and high again at
	// very large cf (lost parallelism), with an interior optimum.
	const N, nG, m, d = 1_000_000, 2000, 50, 9
	w1 := OverlapHeaviestWorkload(N, nG, m, d, 1)
	wBig := OverlapHeaviestWorkload(N, nG, m, d, nG/2)
	cf, wOpt := OptimalClusteringFactor(N, nG, m, d, nG)
	if cf <= 1 || cf >= nG/2 {
		t.Fatalf("optimal cf = %d not interior", cf)
	}
	if !(wOpt < w1 && wOpt < wBig) {
		t.Fatalf("optimum %v not below endpoints %v, %v", wOpt, w1, wBig)
	}
	// The paper observes cf=1 about 2x slower than the optimum for its
	// workload; for this parameterization the ratio should be well above 1.
	if w1/wOpt < 1.5 {
		t.Errorf("cf=1 / optimum ratio = %.2f, want > 1.5", w1/wOpt)
	}
}

func TestOverlapReducesToNonOverlap(t *testing.T) {
	// With d=0 and cf=1, Formula (4) must equal Formula (2).
	const N, nG, m = 500_000, 1000, 20
	got := OverlapHeaviestWorkload(N, nG, m, 0, 1)
	want := HeaviestWorkload(N, nG, m)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Sample 100 of 10000 and check the sample mean is near the stream mean.
	r := NewReservoir[int](200, 7)
	for i := 0; i < 10000; i++ {
		r.Add(i)
	}
	s := r.Sample()
	if len(s) != 200 {
		t.Fatalf("sample size = %d", len(s))
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	mean := sum / float64(len(s))
	if mean < 3500 || mean > 6500 {
		t.Errorf("sample mean %v implausible for uniform sample of 0..9999", mean)
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r := NewReservoir[string](10, 1)
	r.Add("a")
	r.Add("b")
	if got := len(r.Sample()); got != 2 {
		t.Errorf("sample size = %d, want 2", got)
	}
}
