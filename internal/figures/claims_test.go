package figures

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
)

// The claims the paper makes about each panel of Figure 4 (Section VI),
// stated as checks over the panel data. TestPaperClaimsOnCommittedSnapshot
// holds them against BENCH_FIG4.json — which the CI regression smoke pins
// bit-identical to a fresh scale-1 run — and the TestFig4x tests hold the
// ones that survive at tiny scale against a fresh run: (b) and (d) whole,
// (a) with a wider band (fixed task overheads weigh on 1 000 records) and
// (e) on DS0 alone. At tiny scale the cf optimum of (c) runs off the
// sweep and the sampled plan of (f) pays more for its pass than skew
// costs, so those two are held at scale 1 only. Each check returns the
// claims the panel breaks, empty when all hold.

// claimsA: scale-up is roughly linear — per query, time grows with the
// data, and the simulated seconds per record at every size are within
// tol (a fraction) of those at the largest size.
func claimsA(p *PanelA, tol float64) []string {
	var broken []string
	last := len(p.Sizes) - 1
	for j, q := range p.Queries {
		perRec := p.Seconds[last][j] / float64(p.Sizes[last])
		for i := range p.Sizes {
			if i > 0 && p.Seconds[i][j] <= p.Seconds[i-1][j] {
				broken = append(broken, fmt.Sprintf("Q%d: %.1fs at %d records, %.1fs at %d", q,
					p.Seconds[i][j], p.Sizes[i], p.Seconds[i-1][j], p.Sizes[i-1]))
			}
			if r := p.Seconds[i][j] / float64(p.Sizes[i]) / perRec; r < 1-tol || r > 1+tol {
				broken = append(broken, fmt.Sprintf("Q%d: per-record time at %d records is %.2fx that at %d",
					q, p.Sizes[i], r, p.Sizes[last]))
			}
		}
	}
	return broken
}

// claimsB: speed-up is monotone — Q1's and Q2's processing rates rise
// with every step up in reducers.
func claimsB(p *PanelB) []string {
	var broken []string
	for j, q := range p.Queries {
		if q != 1 && q != 2 {
			continue
		}
		for i := 1; i < len(p.Reducers); i++ {
			if p.Rate[i][j] <= p.Rate[i-1][j] {
				broken = append(broken, fmt.Sprintf("Q%d: rate %.3f at %d reducers, %.3f at %d", q,
					p.Rate[i][j], p.Reducers[i], p.Rate[i-1][j], p.Reducers[i-1]))
			}
		}
	}
	return broken
}

// claimsC: the clustering factor has an interior measured optimum, and
// the optimizer's Formula (4) choice lies between the swept factors
// either side of it.
func claimsC(p *PanelC) []string {
	best := 0
	for i := range p.Measured {
		if p.Measured[i] < p.Measured[best] {
			best = i
		}
	}
	if best == 0 || best == len(p.Factors)-1 {
		return []string{fmt.Sprintf("measured optimum at the sweep's edge, cf=%d", p.Factors[best])}
	}
	if lo, hi := p.Factors[best-1], p.Factors[best+1]; p.OptimalCF <= lo || p.OptimalCF >= hi {
		return []string{fmt.Sprintf("optimizer's cf=%d outside (%d, %d) around the measured optimum cf=%d",
			p.OptimalCF, lo, hi, p.Factors[best])}
	}
	return nil
}

// claimsD: each stage of the breakdown costs more than the one before
// (Map-Only < MR < Sort < Sort+Eval), and the combined-key sort beats the
// two-pass Sort+Eval.
func claimsD(p *PanelD) []string {
	var broken []string
	for i := 1; i < len(p.Seconds); i++ {
		if p.Seconds[i] <= p.Seconds[i-1] {
			broken = append(broken, fmt.Sprintf("%s (%.1fs) not above %s (%.1fs)",
				p.Stages[i], p.Seconds[i], p.Stages[i-1], p.Seconds[i-1]))
		}
	}
	if last := len(p.Seconds) - 1; p.Combined >= p.Seconds[last] {
		broken = append(broken, fmt.Sprintf("Combined (%.1fs) not below %s (%.1fs)", p.Combined, p.Stages[last], p.Seconds[last]))
	}
	return broken
}

// claimsE: early aggregation wins on the first sets datasets — the paper
// claims it for the coarse-grained DS0 and DS1.
func claimsE(p *PanelE, sets int) []string {
	var broken []string
	for i := 0; i < sets; i++ {
		if p.With[i] >= p.Without[i] {
			broken = append(broken, fmt.Sprintf("DS%d: with early aggregation %.1fs, without %.1fs", i, p.With[i], p.Without[i]))
		}
	}
	return broken
}

// claimsF: the sampling plan is no slower than the fixed 2Blocks and
// 4Blocks plans, on uniform and skewed data alike.
func claimsF(p *PanelF) []string {
	var broken []string
	sampling := slices.Index(p.Plans, "Sampling")
	for _, plan := range []string{"2Blocks", "4Blocks"} {
		i := slices.Index(p.Plans, plan)
		for d, data := range []string{"uniform", "skewed"} {
			if p.Seconds[sampling][d] > p.Seconds[i][d] {
				broken = append(broken, fmt.Sprintf("%s: Sampling %.1fs above %s %.1fs", data, p.Seconds[sampling][d], plan, p.Seconds[i][d]))
			}
		}
	}
	return broken
}

func reportClaims(t *testing.T, panel string, broken []string) {
	t.Helper()
	for _, b := range broken {
		t.Errorf("Figure 4(%s): %s", panel, b)
	}
}

// TestPaperClaimsOnCommittedSnapshot holds every panel's claims against
// the committed scale-1 snapshot.
func TestPaperClaimsOnCommittedSnapshot(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_FIG4.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Panels struct {
			A struct{ Data PanelA }
			B struct{ Data PanelB }
			C struct{ Data PanelC }
			D struct{ Data PanelD }
			E struct{ Data PanelE }
			F struct{ Data PanelF }
		}
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	p := snap.Panels
	if len(p.A.Data.Sizes) == 0 || len(p.B.Data.Rate) == 0 || len(p.C.Data.Measured) == 0 ||
		len(p.D.Data.Seconds) == 0 || len(p.E.Data.With) == 0 || len(p.F.Data.Seconds) == 0 {
		t.Fatal("snapshot lacks a panel")
	}
	reportClaims(t, "a", claimsA(&p.A.Data, 0.25))
	reportClaims(t, "b", claimsB(&p.B.Data))
	reportClaims(t, "c", claimsC(&p.C.Data))
	reportClaims(t, "d", claimsD(&p.D.Data))
	reportClaims(t, "e", claimsE(&p.E.Data, 2))
	reportClaims(t, "f", claimsF(&p.F.Data))
}
