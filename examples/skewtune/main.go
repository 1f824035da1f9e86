// Skewtune: run-time skew handling (paper Section V). The same
// sliding-window query is evaluated over a uniform dataset and over one
// whose timestamps all fall in the first quarter of the time range. The
// example compares the model-only plan against the sampling-based plan
// chooser (mappers sample their input, simulate the dispatch for every
// candidate plan, and pick the most balanced one) and shows the decision
// cache answering a repeated query without planning or sampling again.
//
//	go run ./examples/skewtune
package main

import (
	"fmt"
	"log"
	"math/rand"

	casm "github.com/casm-project/casm"
)

const days = 16

func main() {
	schema := casm.NewSchema(
		casm.MustAttribute("region", casm.Nominal, 64,
			casm.Level{Name: "city", Span: 1},
			casm.Level{Name: "country", Span: 16},
		),
		casm.MustAttribute("amount", casm.Numeric, 1000, casm.Level{Name: "value", Span: 1}),
		casm.TimeAttribute("time", days),
	)
	query, err := casm.Build(schema).
		Basic("volume", casm.Agg(casm.Sum), "amount",
			casm.At("region", "country"), casm.At("time", "hour")).
		Sliding("trailing", casm.Agg(casm.Sum), "volume", casm.Window("time", -11, 0),
			casm.At("region", "country"), casm.At("time", "hour")).
		Done()
	if err != nil {
		log.Fatal(err)
	}

	gen := func(skewed bool, n int) []casm.Record {
		rng := rand.New(rand.NewSource(99))
		span := int64(days * 86400)
		if skewed {
			span /= 8 // everything lands in the first two days
		}
		out := make([]casm.Record, n)
		for i := range out {
			out[i] = casm.Record{rng.Int63n(64), rng.Int63n(1000), rng.Int63n(span)}
		}
		return out
	}

	run := func(label string, records []casm.Record, sampling bool) *casm.Result {
		cfg := casm.Config{NumReducers: 32}
		if sampling {
			cfg.SkewMode = casm.SkewSampling
			cfg.SampleSize = 4000
		}
		engine, err := casm.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Run(query, casm.MemoryDataset(schema, records, 48))
		if err != nil {
			log.Fatal(err)
		}
		// Report balance: heaviest reducer vs the mean.
		var max, total int64
		for _, t := range res.Stats.ReduceTasks {
			if t.PairsIn > max {
				max = t.PairsIn
			}
			total += t.PairsIn
		}
		mean := float64(total) / float64(len(res.Stats.ReduceTasks))
		fmt.Printf("%-28s key=%s cf=%-3d sampled=%-5v imbalance=%.2fx  %s\n",
			label, res.Plan.Key.Format(schema), res.Plan.ClusteringFactor,
			res.SampledPlan, float64(max)/mean, res.Estimate)
		return res
	}

	uniform := gen(false, 200_000)
	skewed := gen(true, 200_000)

	fmt.Println("model-only optimizer:")
	run("  uniform data", uniform, false)
	rNormal := run("  skewed data", skewed, false)

	fmt.Println("\nsampling-based plan choice:")
	run("  uniform data", uniform, true)
	rSampled := run("  skewed data", skewed, true)

	imbalance := func(r *casm.Result) float64 {
		var max, total int64
		for _, t := range r.Stats.ReduceTasks {
			if t.PairsIn > max {
				max = t.PairsIn
			}
			total += t.PairsIn
		}
		return float64(max) / (float64(total) / float64(len(r.Stats.ReduceTasks)))
	}
	fmt.Printf("\non skewed data, sampling improved the heaviest-reducer imbalance from %.2fx to %.2fx\n"+
		"(its fixed overhead was %.1f simulated seconds — negligible at production scale)\n",
		imbalance(rNormal), imbalance(rSampled), rSampled.SampleSeconds)

	// Decision cache: the sampling pass above is paid once per (query,
	// dataset, planning knobs). A repeat — here the same query under new
	// measure names, which the canonical fingerprint ignores — reuses the
	// finished decision: no candidate scoring, no second sample.
	cache := casm.NewDecisionCache(0)
	engine, err := casm.NewEngine(casm.Config{
		NumReducers: 32, SkewMode: casm.SkewSampling, SampleSize: 4000, DecisionCache: cache,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := casm.MemoryDataset(schema, skewed, 48)
	ds.Tag = "skewed" // sampled decisions are per dataset: name it
	if _, err := engine.Run(query, ds); err != nil {
		log.Fatal(err)
	}
	renamed, err := casm.Build(schema).
		Basic("v", casm.Agg(casm.Sum), "amount",
			casm.At("region", "country"), casm.At("time", "hour")).
		Sliding("t12", casm.Agg(casm.Sum), "v", casm.Window("time", -11, 0),
			casm.At("region", "country"), casm.At("time", "hour")).
		Done()
	if err != nil {
		log.Fatal(err)
	}
	res2, err := engine.Run(renamed, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndecision cache: %d hit(s), %d miss(es); the repeat ran with key=%s cf=%d, plan cached=%v, sampling overhead %.1fs\n",
		cache.Hits(), cache.Misses(), res2.Plan.Key.Format(schema), res2.Plan.ClusteringFactor,
		res2.PlanCached, res2.SampleSeconds)
}
