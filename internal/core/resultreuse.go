package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/casm-project/casm/internal/blockstore"
	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/mr"
	"github.com/casm-project/casm/internal/optimizer"
	"github.com/casm-project/casm/internal/recio"
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
	// canonOf is the canonical index of each of the workflow's measures (in
	// Measures order), and measureOf its inverse.
	canonOf, measureOf []int

	mu      sync.Mutex
	entries map[string]struct{} // entry keys touched (hit or filled)
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
	canonOf, measureOf := make([]int, len(canon)), make([]int, len(canon))
	for i, m := range canon {
		measureOf[i] = slices.Index(w.Measures(), m)
		canonOf[measureOf[i]] = i
	}
	// The plan participates in the manifest key (different plans cut
	// different blocks, so their entry sets differ) but not in the entry
	// keys themselves: a block key already encodes the plan's block
	// geometry, so entries are shared wherever plans happen to agree.
	planKey := fmt.Sprintf("%s|cf=%d", plan.Key.Format(ds.Schema), plan.ClusteringFactor)
	return &resultReuse{
		rc:        rc,
		prefix:    blockstore.AppendEntryKeyPrefix(nil, ds.Tag, fp, ds.NumRecords),
		queryKey:  blockstore.QueryKey(ds.Tag, fp, ds.NumRecords, planKey),
		canonOf:   canonOf,
		measureOf: measureOf,
		entries:   make(map[string]struct{}),
	}
}

// note records that this run touched an entry (served from it or wrote
// it), making it part of the manifest committed on success.
func (ru *resultReuse) note(key []byte) {
	ru.mu.Lock()
	ru.entries[string(key)] = struct{}{}
	ru.mu.Unlock()
}

// commit publishes the manifest after a fully drained, successful run.
func (ru *resultReuse) commit() {
	ru.mu.Lock()
	keys := make([]string, 0, len(ru.entries))
	for k := range ru.entries {
		keys = append(keys, k)
	}
	ru.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	ru.rc.Commit(ru.queryKey, keys)
}

// replay adds a block's cached rows to the reduce task's output chunks,
// mapping canonical measure indices back to this workflow's measures: the
// rows added are the ones a fresh evaluation of the block would emit. The
// entry is decoded whole before any row is added, so one that does not
// decode adds nothing and replay reports false: the block is a miss.
func (ru *resultReuse) replay(ctx *mr.ReduceCtx[*rowChunk], out *ownedOutput, rows []byte) bool {
	coord := make([]int64, len(out.ms[0].Grain)) // a grain has an entry per attribute
	if eachCachedRow(rows, len(ru.measureOf), coord, func(int, []int64, float64) {}) != nil {
		return false
	}
	// The entry decoded above, so this pass cannot fail.
	_ = eachCachedRow(rows, len(ru.measureOf), coord, func(idx int, coord []int64, v float64) {
		out.add(ctx, ru.measureOf[idx], coord, v)
	})
	return true
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
	slots := make([]*asmSlot, len(ru.measureOf))
	coord := make([]int64, asm.arity)
	var hits, served int64
	for _, k := range keys {
		rows, ok := ru.rc.Get([]byte(k))
		if !ok {
			return nil, false
		}
		hits++
		served += int64(len(rows))
		err := eachCachedRow(rows, len(slots), coord, func(idx int, coord []int64, v float64) {
			if slots[idx] == nil {
				slots[idx] = asm.slot(out.Measures, q.w.Measures()[ru.measureOf[idx]])
			}
			slots[idx].push(coord, v)
		})
		if err != nil {
			return nil, false
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
// where the payload is the packed <region coordinates, value> record
// appendMeasureRecord writes.

func appendCachedRow(dst []byte, canonIdx int, coord []int64, v float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(canonIdx))
	dst = binary.AppendUvarint(dst, uint64(measureRecordLen(coord)))
	return appendMeasureRecord(dst, coord, v)
}

var errCachedRow = errors.New("core: corrupt cached row")

// eachCachedRow decodes a cached block entry row by row, calling fn with
// each row's canonical measure index, coordinates and value;
// coord is the caller's scratch, as long as the arity, and holds a row's
// coordinates during its call only. It stops at the first row that is
// truncated, names a measure index ≥ measures, or is not in the exact form
// appendCachedRow writes (every uvarint minimal). It is
// the one decoder of both reuse paths, and it allocates nothing: no length
// read from the entry sizes an allocation.
func eachCachedRow(entry []byte, measures int, coord []int64, fn func(idx int, coord []int64, v float64)) error {
	for len(entry) > 0 {
		idx, n := binary.Uvarint(entry)
		if n <= 0 || n != recio.UvarintLen(idx) || idx >= uint64(measures) {
			return errCachedRow
		}
		entry = entry[n:]
		l, n := binary.Uvarint(entry)
		if n <= 0 || n != recio.UvarintLen(l) || uint64(len(entry)-n) < l {
			return errCachedRow
		}
		key, v, err := splitMeasureRecord(entry[n : n+int(l)])
		if err == nil {
			err = cube.DecodeCoordsInto(key, coord)
		}
		if err == nil && measureRecordLen(coord) != int(l) { // a coordinate's uvarint is not minimal
			err = errCachedRow
		}
		if err != nil {
			return err
		}
		fn(int(idx), coord, v)
		entry = entry[n+int(l):]
	}
	return nil
}
