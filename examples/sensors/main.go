// Sensors: an IoT fleet-monitoring scenario exercising overlapping
// distribution and the clustering-factor trade-off. Temperature readings
// (sensor, temperature, time) are summarized per rack and hour, and each
// hour is scored against the rack's baseline from 6–12 hours earlier — a
// drift detector expressed as one composite subset measure query with a
// sliding-window component.
//
// The example evaluates the same query under three clustering factors,
// showing how block granularity moves the simulated response time while
// the answer stays identical.
//
//	go run ./examples/sensors
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	casm "github.com/casm-project/casm"
)

const (
	sensors = 512 // 32 racks x 16 sensors
	days    = 10
)

func main() {
	schema := casm.NewSchema(
		casm.MustAttribute("sensor", casm.Nominal, sensors,
			casm.Level{Name: "id", Span: 1},
			casm.Level{Name: "rack", Span: 16},
		),
		casm.MustAttribute("temp", casm.Numeric, 1200, // decidegrees
			casm.Level{Name: "raw", Span: 1},
			casm.Level{Name: "band", Span: 100},
		),
		casm.TimeAttribute("time", days),
	)

	// The detector compares each hour against the rack's baseline from
	// 6–12 hours earlier, so a sustained ramp shows up as a ratio well
	// above 1 while the diurnal wobble stays near 1.
	query, err := casm.Build(schema).
		Basic("hourly", casm.Agg(casm.Avg), "temp",
			casm.At("sensor", "rack"), casm.At("time", "hour")).
		Sliding("baseline", casm.Agg(casm.Avg), "hourly", casm.Window("time", -11, -6),
			casm.At("sensor", "rack"), casm.At("time", "hour")).
		Self("drift", casm.Ratio(), []string{"hourly", "baseline"},
			casm.At("sensor", "rack"), casm.At("time", "hour")).
		Done()
	if err != nil {
		log.Fatal(err)
	}

	// Readings: mild diurnal cycle plus one rack that ramps up on day 9.
	rng := rand.New(rand.NewSource(41))
	var records []casm.Record
	for i := 0; i < 400_000; i++ {
		s := rng.Int63n(sensors)
		t := rng.Int63n(days * 86400)
		base := 400 + 20*math.Sin(2*math.Pi*float64(t%86400)/86400)
		if s/16 == 5 && t > 9*86400 { // rack 5 ramps at +20 deci-degrees/hour
			base += float64(t-9*86400) / 3600 * 20
		}
		temp := int64(base) + rng.Int63n(40)
		if temp > 1199 {
			temp = 1199
		}
		records = append(records, casm.Record{s, temp, t})
	}
	ds := casm.MemoryDataset(schema, records, 32)

	fmt.Println("clustering-factor sweep (same answer, different cost):")
	var reference int
	for _, cf := range []int64{1, 8, 64} {
		engine, err := casm.NewEngine(casm.Config{
			NumReducers: 8,
			ForceCF:     cf,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Run(query, ds)
		if err != nil {
			log.Fatal(err)
		}
		n := int(res.TotalRecords())
		if reference == 0 {
			reference = n
		} else if n != reference {
			log.Fatalf("cf=%d changed the answer: %d vs %d records", cf, n, reference)
		}
		fmt.Printf("  cf=%-3d shuffled %5.1f MB, simulated %s\n",
			cf, float64(res.Stats.Shuffled)/(1<<20), res.Estimate)
	}

	// Let the optimizer choose, then report the drift detector's hits.
	engine, err := casm.NewEngine(casm.Config{NumReducers: 8})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(query, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer's choice: key=%s cf=%d\n",
		res.Plan.Key.Format(schema), res.Plan.ClusteringFactor)

	si, _ := schema.AttrIndex("sensor")
	ti, _ := schema.AttrIndex("time")
	worst := map[int64]float64{}
	when := map[int64]int64{}
	for _, r := range res.Measures["drift"] {
		rack := r.Region.Coord[si]
		if r.Value > worst[rack] {
			worst[rack] = r.Value
			when[rack] = r.Region.Coord[ti]
		}
	}
	fmt.Println("\nracks whose hourly average exceeds their 6-12h-earlier baseline by >15%:")
	for rack := int64(0); rack < sensors/16; rack++ {
		if worst[rack] > 1.15 {
			fmt.Printf("  rack %2d: hourly/baseline = %.3f at hour %d  <-- drift\n",
				rack, worst[rack], when[rack])
		}
	}
}
