package mr

import (
	"context"
	"fmt"

	"github.com/casm-project/casm/internal/exec"
)

// Morsel-driven map execution (Config.MorselBytes > 0), after Leis et
// al., "Morsel-Driven Parallelism" (SIGMOD '14): instead of pinning one
// goroutine to each input split, every split is carved into small
// contiguous record runs (morsels) that a fixed set of workers
// self-schedules over work-stealing deques. The unit of load balancing
// shrinks from a whole split to ~MorselBytes of records, so a split that
// turns out hot — clustered data, a zipf-dense block, an expensive
// record mix — is finished cooperatively by the whole pool instead of
// riding out one straggling task while its siblings idle.
//
// Aggregation keeps the two-phase shape of the same paper: each worker
// owns one mapPipeline for its whole tour, folding emitted pairs into its
// combiner table (phase 1, bounded by LocalAggBudget distinct states) and
// on overflow or exhaustion flushing the partials — in deterministic
// ascending key order — into the shuffle toward the reducers' global
// grouping collectors (phase 2, the hash-grouped internal/groupx path).
// Worker-local flush order is deterministic, and the reduce side is
// insensitive to the cross-worker interleaving (the same property
// concurrent fixed-split senders already rely on), so morsel output is
// byte-identical to fixed-split output; the engine property tests pin
// that equivalence.

// DefaultMorselBytes is the recommended morsel size (casmrun's help
// names it): 32KiB of records is a few
// thousand records — small enough that a straggling split is carved into
// hundreds of stealable pieces, large enough that deque traffic is
// amortized over ~10^3 records of map work.
const DefaultMorselBytes = 32 << 10

// carveMorsels flattens the splits into a morsel list, carving splits
// that support it and passing the rest through whole. The returned
// owner[i] is the index of morsel i's originating split, used to deal
// morsels onto deques so each worker starts with a contiguous share.
func carveMorsels(splits []Split, targetBytes int) (items []Split, owners []int, err error) {
	for si, sp := range splits {
		ms, ok := sp.(MorselSplit)
		if !ok {
			items = append(items, sp)
			owners = append(owners, si)
			continue
		}
		subs, err := ms.Morsels(targetBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("mr: carve %s: %w", sp.Label(), err)
		}
		for _, sub := range subs {
			items = append(items, sub)
			owners = append(owners, si)
		}
	}
	return items, owners, nil
}

// morselDispatcher deals carved morsels onto per-worker stealing deques.
type morselDispatcher struct {
	deques *exec.StealDeques[Split]
}

// newMorselDispatcher deals each split's morsels onto the deque of the
// split's worker (split index modulo workers): every worker starts on
// contiguous runs of whole splits — the sequential-scan locality of the
// fixed-split mode — and stealing only rearranges work once some deque
// runs dry.
func newMorselDispatcher(workers int, items []Split, owners []int) *morselDispatcher {
	d := &morselDispatcher{deques: exec.NewStealDeques[Split](workers)}
	for i, it := range items {
		d.deques.Push(owners[i], it)
	}
	return d
}

// scanMorsels is one morsel worker's tour: pull morsels — own deque
// first, stealing when dry — until global exhaustion, scanning each
// through the worker's pipeline.
func (p *mapPipeline) scanMorsels(ctx context.Context, w int, d *morselDispatcher) error {
	done := ctx.Done()
	for {
		item, stolen, ok := d.deques.Next(w)
		if !ok {
			return nil
		}
		p.st.MorselsDispatched++
		if stolen {
			p.st.MorselSteals++
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if err := p.scan(ctx, item); err != nil {
			return err
		}
	}
}
