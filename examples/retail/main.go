// Retail: CQL text queries over an irregular product hierarchy. Products
// group into hand-curated categories and divisions (not fixed-span), and
// the analysis is written in the library's small query language instead
// of Go code — the same text a CLI user would put in a .cql file.
//
//	go run ./examples/retail
package main

import (
	"fmt"
	"log"
	"math/rand"

	casm "github.com/casm-project/casm"
)

// A 12-product catalog with irregular grouping: categories of size
// 2/4/3/3, divisions of size 6/6.
var (
	categories = []int64{0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	divisions  = []int64{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
)

const analysis = `
-- daily revenue per category, and each category's share of its division
MEASURE revenue  = SUM(amount)            AT (product:category, time:day);
MEASURE divTotal = ROLLUP SUM(revenue)    AT (product:division, time:day);
MEASURE share    = RATIO(revenue, divTotal) AT (product:category, time:day);
-- week-over-trailing-week momentum per category
MEASURE weekly   = WINDOW SUM(revenue) OVER time(-6, 0) AT (product:category, time:day);
-- how many distinct price points each category sells at per day
MEASURE pricePts = DISTINCT(amount)       AT (product:category, time:day);
`

func main() {
	schema := casm.NewSchema(
		casm.MustMappedAttribute("product", int64(len(categories)),
			casm.MappedLevel{Name: "category", Assign: categories},
			casm.MappedLevel{Name: "division", Assign: divisions},
		),
		casm.MustAttribute("amount", casm.Numeric, 500, casm.Level{Name: "cents", Span: 1}),
		casm.TimeAttribute("time", 14),
	)

	query, err := casm.ParseQuery(schema, analysis)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parsed query:")
	fmt.Println(casm.FormatQuery(query))

	rng := rand.New(rand.NewSource(33))
	records := make([]casm.Record, 150_000)
	for i := range records {
		p := rng.Int63n(int64(len(categories)))
		// Division 1 sells pricier goods; category 3 ramps up over time.
		t := rng.Int63n(14 * 86400)
		amount := 50 + rng.Int63n(200)
		if divisions[p] == 1 {
			amount += 150
		}
		if categories[p] == 3 {
			amount += t / 86400 * 10
		}
		if amount > 499 {
			amount = 499
		}
		records[i] = casm.Record{p, amount, t}
	}

	engine, err := casm.NewEngine(casm.Config{NumReducers: 8})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(query, casm.MemoryDataset(schema, records, 16))
	if err != nil {
		log.Fatal(err)
	}

	pi, _ := schema.AttrIndex("product")
	ti, _ := schema.AttrIndex("time")

	fmt.Println("category share of division revenue (day 13):")
	for _, r := range res.Measures["share"] {
		if r.Region.Coord[ti] == 13 {
			fmt.Printf("  category %d: %5.1f%%\n", r.Region.Coord[pi], 100*r.Value)
		}
	}

	fmt.Println("\nweekly revenue momentum, category 3 (ramping) vs 0 (flat):")
	for _, day := range []int64{6, 9, 13} {
		var c0, c3 float64
		for _, r := range res.Measures["weekly"] {
			if r.Region.Coord[ti] != day {
				continue
			}
			switch r.Region.Coord[pi] {
			case 0:
				c0 = r.Value
			case 3:
				c3 = r.Value
			}
		}
		fmt.Printf("  day %2d: category0 %9.0f   category3 %9.0f\n", day, c0, c3)
	}

	var pts int
	for _, r := range res.Measures["pricePts"] {
		pts += int(r.Value)
	}
	fmt.Printf("\ndistinct daily price points across all categories: %d\n", pts)
	fmt.Printf("simulated time on the paper's cluster: %s\n", res.Estimate)
}
