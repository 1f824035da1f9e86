package optimizer

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// DecisionCache is the engine's one plan cache: a bounded, keyed cache of
// complete optimizer decisions. It memoizes the entire planning outcome —
// key, clustering factor, candidate scores — under an exact string key
// built from the canonical workflow fingerprint, the dataset identity,
// and every planning knob that influences the decision. A hit therefore
// skips candidate enumeration, scoring, and skew sampling entirely; it is
// the cache that makes repeated or structurally identical queries plan in
// ~0 time.
//
// Entries evict in LRU order once the capacity is reached. The cache is
// safe for concurrent use and hands out defensive clones, so callers may
// mutate a returned Plan freely.
type DecisionCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

// DefaultDecisionCacheSize bounds a DecisionCache built with capacity <= 0.
const DefaultDecisionCacheSize = 256

type decisionEntry struct {
	key     string
	plan    Plan
	sampled bool
}

// NewDecisionCache returns an empty cache holding at most capacity
// decisions (DefaultDecisionCacheSize when capacity <= 0).
func NewDecisionCache(capacity int) *DecisionCache {
	if capacity <= 0 {
		capacity = DefaultDecisionCacheSize
	}
	return &DecisionCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// DecisionKey builds the cache key for one planning decision. Every input
// that can change the optimizer's output must appear here: the workflow's
// structural fingerprint, the dataset identity (record count — the model's
// N — plus a caller-supplied dataset tag), and the planning knobs. Knobs
// that only affect execution (transport, sort mode, morsels) are deliberately
// absent: they do not alter the chosen plan.
func DecisionKey(workflowFP, datasetTag string, numRecords int64, cfg Config, skewMode, sampleSize int, seed int64) string {
	return fmt.Sprintf("wf=%s|ds=%s|n=%d|m=%d|minb=%d|skew=%d|samp=%d|seed=%d",
		workflowFP, datasetTag, numRecords,
		cfg.NumReducers, cfg.MinBlocksPerReducer, skewMode, sampleSize, seed)
}

// Get returns the cached decision for key, cloning the plan so the caller
// owns it. The second result reports whether skew sampling contributed to
// the original decision.
func (c *DecisionCache) Get(key string) (Plan, bool, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return Plan{}, false, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*decisionEntry)
	plan := clonePlan(e.plan)
	sampled := e.sampled
	c.mu.Unlock()
	c.hits.Add(1)
	return plan, sampled, true
}

// Put stores a decision under key, evicting the least recently used entry
// when full. The plan is cloned on the way in, so later caller mutations
// cannot corrupt the cache.
func (c *DecisionCache) Put(key string, plan Plan, sampled bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*decisionEntry).plan = clonePlan(plan)
		el.Value.(*decisionEntry).sampled = sampled
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&decisionEntry{key: key, plan: clonePlan(plan), sampled: sampled})
	for len(c.entries) > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*decisionEntry).key)
	}
}

// Len returns the number of cached decisions.
func (c *DecisionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits returns the number of cache hits since construction.
func (c *DecisionCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cache misses since construction.
func (c *DecisionCache) Misses() int64 { return c.misses.Load() }

func clonePlan(p Plan) Plan {
	out := p
	out.Key = p.Key.Clone()
	out.Candidates = make([]Candidate, len(p.Candidates))
	for i, cand := range p.Candidates {
		out.Candidates[i] = cand
		out.Candidates[i].Key = cand.Key.Clone()
	}
	return out
}
