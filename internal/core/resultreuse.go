package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/workflow"
)

// Result reuse materializes each block's reducer output — the rows that
// survived the ownership filter — in Config.ResultCache, keyed by
// (dataset identity × measure fingerprint × block key). The invalidation
// rule is entirely structural: the dataset identity is (Tag, NumRecords),
// so re-ingesting a file under the same tag changes the cardinality and
// thereby the key, and the measure fingerprint is the canonical workflow
// fingerprint, so any structural change to the workflow misses cleanly.
// Nothing is ever patched in place; stale entries age out of the LRU.
//
// Cached rows carry canonical measure *indices*, not names
// (workflow.CanonicalMeasures order). Two structurally identical
// workflows share a fingerprint even when their measures are named
// differently; storing indices lets either workflow's run fill the cache
// and the other reuse it, each mapping the rows back to its own names.
//
// A committed manifest (ResultCache.Commit) additionally records the
// complete set of block entries one (query plan, dataset, workflow)
// evaluation touched; a repeated identical query then assembles its
// whole answer from the manifest without starting a job — zero input
// bytes scanned. Manifests are only committed by runs that completed
// every reduce group, so a partially filled cache (crash between entry
// writes and commit, streaming consumers that stop early) degrades to
// per-block reuse, never to a wrong answer.

// resultReuse is one run's reuse session: the probe prefix, the
// canonical measure mapping, and the set of entry keys the run touched.
type resultReuse struct {
	rc       *blockstore.ResultCache
	prefix   []byte // entry-key prefix: dataset tag × fingerprint × cardinality
	queryKey string // manifest key: prefix facts × plan key
	canon    []*workflow.Measure
	canonIdx map[string]int // measure name → canonical index

	mu         sync.Mutex
	entries    map[string]struct{} // entry keys touched (hit or filled)
	incomplete bool                // a group neither hit nor filled; never commit
}

// newResultReuse returns the run's reuse session, or nil when reuse does
// not apply (no cache, anonymous dataset, unknown cardinality, or a
// workflow the canonicalizer rejects — the evaluator would reject it too,
// so failing open is safe).
func (e *Engine) newResultReuse(w *workflow.Workflow, ds *Dataset, plan optimizer.Plan) *resultReuse {
	rc := e.cfg.ResultCache
	if rc == nil || ds.Tag == "" || ds.NumRecords <= 0 {
		return nil
	}
	fp, err := workflow.Fingerprint(w)
	if err != nil {
		return nil
	}
	canon, err := workflow.CanonicalMeasures(w)
	if err != nil {
		return nil
	}
	idx := make(map[string]int, len(canon))
	for i, m := range canon {
		idx[m.Name] = i
	}
	// The plan participates in the manifest key (different plans cut
	// different blocks, so their entry sets differ) but not in the entry
	// keys themselves: a block key already encodes the plan's block
	// geometry, so entries are shared wherever plans happen to agree.
	planKey := fmt.Sprintf("%s|cf=%d", plan.Key.Format(ds.Schema), plan.ClusteringFactor)
	return &resultReuse{
		rc:       rc,
		prefix:   blockstore.AppendEntryKeyPrefix(nil, ds.Tag, fp, ds.NumRecords),
		queryKey: blockstore.QueryKey(ds.Tag, fp, ds.NumRecords, planKey),
		canon:    canon,
		canonIdx: idx,
		entries:  make(map[string]struct{}),
	}
}

// note records that this run touched an entry (served from it or wrote
// it), making it part of the manifest committed on success.
func (ru *resultReuse) note(key []byte) {
	ru.mu.Lock()
	ru.entries[string(key)] = struct{}{}
	ru.mu.Unlock()
}

// markIncomplete poisons the manifest: some group's rows are neither
// cached nor freshly captured, so committing would record a partial
// answer as complete.
func (ru *resultReuse) markIncomplete() {
	ru.mu.Lock()
	ru.incomplete = true
	ru.mu.Unlock()
}

// commit publishes the manifest after a fully drained, successful run.
func (ru *resultReuse) commit() {
	ru.mu.Lock()
	keys := make([]string, 0, len(ru.entries))
	for k := range ru.entries {
		keys = append(keys, k)
	}
	bad := ru.incomplete
	ru.mu.Unlock()
	if bad || len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	ru.rc.Commit(ru.queryKey, keys)
}

// emitCached replays a block's cached rows through the reducer's output
// path, mapping canonical measure indices back to this workflow's
// interned names. The emitted rows are byte-identical to what a fresh
// evaluation of the block would have produced.
func (ru *resultReuse) emitCached(ctx *mr.ReduceCtx, out *ownedOutput, rows []byte) error {
	for off := 0; off < len(rows); {
		idx, payload, next, err := readCachedRow(rows, off)
		if err != nil {
			return err
		}
		if idx >= len(ru.canon) {
			return fmt.Errorf("core: cached row references measure %d of %d", idx, len(ru.canon))
		}
		ctx.EmitStable(out.key(ru.canon[idx].Name), append([]byte(nil), payload...))
		off = next
	}
	return nil
}

// resultFromCache assembles the whole answer to q from a committed
// manifest, bypassing the job entirely. Its header is the plan's, early
// aggregation included, as PlanBatchContext reports it: ResultReused says
// no job ran. Any gap — manifest missing, an entry evicted since commit, a
// row that fails to decode — falls back to running the job; reuse can be
// slow-pathed, never wrong.
func (e *Engine) resultFromCache(ctx context.Context, q *jobQuery, ds *Dataset, ru *resultReuse) (*Result, bool) {
	keys, ok := ru.rc.Manifest(ru.queryKey)
	if !ok {
		return nil, false
	}
	out := &Result{
		ResultHeader: q.outcome.header(e.earlyFor(q) != nil),
		Measures:     make(map[string][]MeasureRecord, len(q.w.Measures())),
		ResultReused: true,
	}
	asm := assembler{arity: ds.Schema.NumAttrs()}
	slots := make([]*asmSlot, len(ru.canon))
	var hits, served int64
	for _, k := range keys {
		rows, ok := ru.rc.Get([]byte(k))
		if !ok {
			return nil, false
		}
		hits++
		served += int64(len(rows))
		for off := 0; off < len(rows); {
			idx, payload, next, err := readCachedRow(rows, off)
			if err != nil || idx >= len(ru.canon) {
				return nil, false
			}
			if slots[idx] == nil {
				slots[idx] = asm.slot(out.Measures, ru.canon[idx])
			}
			if slots[idx].add(payload) != nil {
				return nil, false
			}
			off = next
		}
	}
	// Same assembler, hence the same canonical order, as the job path: the
	// reused result is byte-identical to the one it replays.
	if asm.finish(ctx, e.cfg.executor) != nil {
		return nil, false
	}
	// The run's stats are one synthetic reduce task whose only non-zero
	// counters are the reuse observations — unpriced, so the simulated
	// time is a single task overhead: the cost of answering from cache.
	out.Stats = mr.JobStats{ReduceTasks: []mr.ReduceTaskStats{{
		Task:           "reduce-cache",
		ReduceObserved: mr.ReduceObserved{ResultCacheHits: hits, ResultCacheBytes: served},
	}}}
	out.Estimate = e.estimate(out.Stats, q.outcome.SampleSeconds)
	return out, true
}

// --- cached-row codec ---

// A cached block entry is a sequence of rows, each
//
//	uvarint canonical measure index | uvarint payload length | payload
//
// where the payload is the same packed <region coordinates, value>
// encoding the shuffle carries (appendMeasureRecord).

func appendCachedRow(dst []byte, canonIdx int, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(canonIdx))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

func readCachedRow(rows []byte, off int) (idx int, payload []byte, next int, err error) {
	u, n := binary.Uvarint(rows[off:])
	if n <= 0 {
		return 0, nil, 0, fmt.Errorf("core: corrupt cached row index")
	}
	off += n
	l, n := binary.Uvarint(rows[off:])
	if n <= 0 || uint64(len(rows)-off-n) < l {
		return 0, nil, 0, fmt.Errorf("core: corrupt cached row payload")
	}
	off += n
	return int(u), rows[off : off+int(l)], off + int(l), nil
}
