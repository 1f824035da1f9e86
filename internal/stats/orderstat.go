// Package stats provides the statistical machinery behind the paper's cost
// model (ICDE'08, Section IV): approximations for the first moment of the
// largest order statistic of a multinomial distribution, plus the
// reservoir sampler behind run-time skew handling (Section V).
package stats

import "math"

// EulerGamma is the Euler–Mascheroni constant, the "alpha = 0.5772"
// parameter of the paper's Formula (2).
const EulerGamma = 0.57721566490153286060651209008240243

// NormalMaxMean approximates the expected value of the maximum of m
// independent standard normal variables:
//
//	E[max] ≈ sqrt(2 ln m) − (ln(ln m) + ln(4π) − 2γ) / (2 sqrt(2 ln m))
//
// This is the classical extreme-order-statistic expansion the paper cites
// ([9], [10]). It is accurate to a few percent for m ≥ 3 and exact enough
// for plan choice everywhere we use it. For m ≤ 1 the maximum of zero or
// one standard normals has mean 0.
func NormalMaxMean(m int) float64 {
	if m <= 1 {
		return 0
	}
	ln := math.Log(float64(m))
	root := math.Sqrt(2 * ln)
	if m == 2 {
		// The expansion misbehaves for ln(ln 2) < 0; the exact value for
		// m = 2 is 1/sqrt(pi).
		return 1 / math.Sqrt(math.Pi)
	}
	return root - (math.Log(ln)+math.Log(4*math.Pi)-2*EulerGamma)/(2*root)
}

// ExpectedMaxBinCount approximates the expected value of the largest bin
// count when n balls are thrown uniformly at random into m bins
// (the first moment of the largest order statistic of Multinomial(n, 1/m)).
//
// Each bin count is approximately Normal(n/m, n·(1/m)(1−1/m)); combining
// with NormalMaxMean gives
//
//	E[max_j C_j] ≈ n/m + sqrt(n·(1/m)(1−1/m)) · z(m).
func ExpectedMaxBinCount(n, m int) float64 {
	if m <= 0 || n <= 0 {
		return 0
	}
	if m == 1 {
		return float64(n)
	}
	fn, fm := float64(n), float64(m)
	mean := fn / fm
	sd := math.Sqrt(fn * (1 / fm) * (1 - 1/fm))
	v := mean + sd*NormalMaxMean(m)
	// The normal approximation can dip below the trivial lower bounds
	// max ≥ ceil(n/m) and max ≥ 1 when there are fewer balls than bins;
	// clamp so downstream plan comparisons stay sane.
	if lower := math.Ceil(mean); v < lower {
		v = lower
	}
	return math.Min(v, fn)
}

// HeaviestWorkload evaluates the paper's Formula (2): the expected number
// of data records assigned to the most loaded of m reducers when nG
// equal-sized regions holding N records in total are placed on reducers
// uniformly at random. Each region carries N/nG records, so the heaviest
// workload is (N/nG) · E[max bin count of Multinomial(nG, 1/m)].
//
// The returned value decreases monotonically as nG grows (finer
// granularities balance better), which is the property the optimizer
// exploits when it prefers the minimal feasible distribution key.
func HeaviestWorkload(totalRecords, numRegions, numReducers int) float64 {
	if numRegions <= 0 || totalRecords <= 0 || numReducers <= 0 {
		return 0
	}
	perRegion := float64(totalRecords) / float64(numRegions)
	return perRegion * ExpectedMaxBinCount(numRegions, numReducers)
}

// OverlapHeaviestWorkload evaluates the paper's Formula (4): the expected
// heaviest reducer workload under an overlapping distribution key whose
// annotated attribute has range width d (= high − low, in regions of the
// key's granularity) and clustering factor cf.
//
// Merging cf neighbouring regions into one block means each block carries
// d+cf regions' worth of data (d of them duplicated from neighbours) and
// only nG/cf blocks exist. Formula (4) is Formula (2) with
// N → N·(d+cf)/cf and nG → nG/cf.
func OverlapHeaviestWorkload(totalRecords, numRegions, numReducers, d, cf int) float64 {
	if cf < 1 {
		cf = 1
	}
	if d < 0 {
		d = 0
	}
	blocks := numRegions / cf
	if blocks < 1 {
		blocks = 1
	}
	inflated := float64(totalRecords) * float64(d+cf) / float64(cf)
	perBlock := inflated / float64(blocks)
	return perBlock * ExpectedMaxBinCount(blocks, numReducers)
}

// OptimalClusteringFactor minimizes Formula (4) over integer clustering
// factors in [1, maxCF]. The paper derives the optimum as a root of a cubic
// obtained by zeroing the derivative of Formula (4); because the search
// space is a small integer range we evaluate the (unimodal) objective
// directly and return the exact integer argmin together with its predicted
// heaviest workload.
func OptimalClusteringFactor(totalRecords, numRegions, numReducers, d, maxCF int) (cf int, workload float64) {
	if maxCF < 1 {
		maxCF = 1
	}
	best, bestW := 1, math.Inf(1)
	for c := 1; c <= maxCF; c++ {
		w := OverlapHeaviestWorkload(totalRecords, numRegions, numReducers, d, c)
		if w < bestW {
			best, bestW = c, w
		}
	}
	return best, bestW
}
