package blockstore

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"
)

// ResultCache materializes per-(dataset identity × measure fingerprint
// × block key) reducer output so repeated or overlapping workflows skip
// local evaluation for blocks whose results are already known — the
// HaCube cuboid-reuse idea generalized to composite subset measures.
//
// Entries and query manifests (the set of entry keys a full query
// produced) live in one byte-bounded in-memory LRU — an entry charged its
// rows, a manifest its key bytes plus manifestKeyOverhead per key — and
// are persisted write-behind to the store's cache file by a single
// flusher goroutine. Evicting either deletes it from the store too: the
// flusher writes its tombstone after any pending write of the same key,
// so the cache file's index holds what memory holds, not every key ever
// cached. A manifest is enqueued only after its entries, so a crash
// between cache writes and the manifest commit degrades to per-block
// reuse: the reload drops any manifest referencing an entry the store
// doesn't hold.
//
// The cached value is an opaque row blob owned by the caller's codec;
// the cache never interprets it beyond its length.

// CacheStats is a snapshot of result-cache counters.
type CacheStats struct {
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Puts              int64 `json:"puts"`
	BytesMaterialized int64 `json:"bytes_materialized"`
	BytesServed       int64 `json:"bytes_served"`
	Evictions         int64 `json:"evictions"`
	Entries           int   `json:"entries"`
	BytesInMemory     int64 `json:"bytes_in_memory"`
	Manifests         int   `json:"manifests"`
	ManifestHits      int64 `json:"manifest_hits"`
	ReloadedEntries   int64 `json:"reloaded_entries"`
	DroppedManifests  int64 `json:"dropped_manifests"`
}

// cacheEntry is one LRU item: an entry (rows) or, by its key's tag, a
// manifest (keys).
type cacheEntry struct {
	key  string
	rows []byte
	keys []string
	size int64 // bytes charged against maxBytes
}

// manifestKeyOverhead is what a manifest is charged per key it holds,
// its own included, beyond the key bytes: the string header and its
// share of the list element, map slot and slice holding it.
const manifestKeyOverhead = 64

func manifestSize(queryKey string, keys []string) int64 {
	n := int64(len(queryKey)) + int64(len(keys)+1)*manifestKeyOverhead
	for _, k := range keys {
		n += int64(len(k))
	}
	return n
}

type flushOp struct {
	key  []byte
	val  []byte
	del  bool          // write key's tombstone instead of val
	done chan struct{} // non-nil: sync barrier, no write
}

// ResultCache is safe for concurrent use.
type ResultCache struct {
	st       *Store // nil: memory-only
	maxBytes int64

	mu        sync.Mutex
	ll        *list.List // entries and manifests; front = most recently used
	entries   map[string]*list.Element
	manifests map[string]*list.Element
	curBytes  int64
	stats     CacheStats
	closed    bool

	flushCh chan flushOp
	flushWG sync.WaitGroup
}

// DefaultCacheBytes bounds the in-memory materialized set when the
// caller doesn't choose: 64 MiB.
const DefaultCacheBytes = 64 << 20

// NewResultCache opens a result cache over st (which may be nil for a
// memory-only cache), reloading persisted entries and manifests from
// the store's cache file. maxBytes <= 0 selects DefaultCacheBytes.
func NewResultCache(st *Store, maxBytes int64) (*ResultCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &ResultCache{
		st:        st,
		maxBytes:  maxBytes,
		ll:        list.New(),
		entries:   make(map[string]*list.Element),
		manifests: make(map[string]*list.Element),
		// Puts enqueue without waiting for the disk; the buffer absorbs
		// a burst of one job's blocks.
		flushCh: make(chan flushOp, 1024),
	}
	if st != nil {
		if err := st.dropLegacyCache(); err != nil {
			return nil, err
		}
		// The flusher runs before the reload, which may enqueue more
		// tombstones than the channel holds.
		c.flushWG.Add(1)
		go c.flusher()
		if err := c.reload(); err != nil {
			close(c.flushCh)
			c.flushWG.Wait()
			return nil, err
		}
	}
	return c, nil
}

// Entry and manifest keys are distinguished by their first byte in the
// store's cache file.
const (
	entryTag    = 'e'
	manifestTag = 'm'
)

// AppendEntryKeyPrefix appends the (dataset, fingerprint) portion of an
// entry key; the caller appends the block key per probe. Dataset
// identity is the registered tag plus cardinality, so re-ingesting more
// records under the same name invalidates rather than corrupts.
func AppendEntryKeyPrefix(dst []byte, datasetTag, fingerprint string, numRecords int64) []byte {
	dst = append(dst, entryTag)
	dst = appendLenPrefixed(dst, []byte(datasetTag))
	dst = appendLenPrefixed(dst, []byte(fingerprint))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(numRecords))
	return append(dst, tmp[:n]...)
}

// QueryKey names a full query's manifest: dataset identity × measure
// fingerprint × the plan that carved the blocks (block keys depend on
// the distribution key and clustering factor).
func QueryKey(datasetTag, fingerprint string, numRecords int64, planKey string) string {
	b := []byte{manifestTag}
	b = appendLenPrefixed(b, []byte(datasetTag))
	b = appendLenPrefixed(b, []byte(fingerprint))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(numRecords))
	b = append(b, tmp[:n]...)
	b = appendLenPrefixed(b, []byte(planKey))
	return string(b)
}

func appendLenPrefixed(dst, v []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(v)))
	dst = append(dst, tmp[:n]...)
	return append(dst, v...)
}

// reload pulls persisted entries and manifests back in, then drops
// manifests with missing entries (crash between entry flush and
// manifest commit) and evicts down to the byte bound, deleting both
// from the store.
func (c *ResultCache) reload() error {
	err := c.st.ScanRaw(CacheFile, func(key, payload []byte) error {
		switch {
		case len(key) > 0 && key[0] == entryTag:
			c.insert(&cacheEntry{key: string(key), rows: append([]byte(nil), payload...), size: int64(len(payload))})
			c.stats.ReloadedEntries++
		case len(key) > 0 && key[0] == manifestTag:
			keys, err := decodeManifest(payload)
			if err != nil {
				return err
			}
			c.insert(&cacheEntry{key: string(key), keys: keys, size: manifestSize(string(key), keys)})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, el := range c.manifests {
		for _, ek := range el.Value.(*cacheEntry).keys {
			if _, ok := c.entries[ek]; !ok {
				c.remove(el)
				c.stats.DroppedManifests++
				break
			}
		}
	}
	c.evictTo(c.maxBytes)
	return nil
}

func encodeManifest(keys []string) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(keys)))
	out := append([]byte(nil), tmp[:n]...)
	for _, k := range keys {
		out = appendLenPrefixed(out, []byte(k))
	}
	return out
}

func decodeManifest(b []byte) ([]string, error) {
	cnt, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("blockstore: corrupt manifest header")
	}
	off := k
	out := make([]string, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		l, k := binary.Uvarint(b[off:])
		if k <= 0 || int(l) > len(b)-off-k {
			return nil, fmt.Errorf("blockstore: corrupt manifest entry %d", i)
		}
		off += k
		out = append(out, string(b[off:off+int(l)]))
		off += int(l)
	}
	return out, nil
}

// index returns the map holding key's kind of item.
func (c *ResultCache) index(key string) map[string]*list.Element {
	if len(key) > 0 && key[0] == manifestTag {
		return c.manifests
	}
	return c.entries
}

// insert adds or replaces an item at the LRU front. Caller holds c.mu
// (or is single-threaded during reload).
func (c *ResultCache) insert(ce *cacheEntry) {
	idx := c.index(ce.key)
	if el, ok := idx[ce.key]; ok {
		c.curBytes += ce.size - el.Value.(*cacheEntry).size
		el.Value = ce
		c.ll.MoveToFront(el)
		return
	}
	idx[ce.key] = c.ll.PushFront(ce)
	c.curBytes += ce.size
}

// remove drops an item from memory and enqueues its deletion from the
// store. Caller holds c.mu (or is reloading).
func (c *ResultCache) remove(el *list.Element) {
	ce := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.index(ce.key), ce.key)
	c.curBytes -= ce.size
	if c.st != nil {
		c.flushCh <- flushOp{key: []byte(ce.key), del: true}
	}
}

func (c *ResultCache) evictTo(bound int64) {
	for c.curBytes > bound {
		el := c.ll.Back()
		if el == nil {
			return
		}
		c.remove(el)
		c.stats.Evictions++
	}
}

// Get returns the cached row blob for an entry key. The returned slice
// is owned by the cache; callers must not modify it.
func (c *ResultCache) Get(key []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	ce := el.Value.(*cacheEntry)
	c.stats.Hits++
	c.stats.BytesServed += int64(len(ce.rows))
	return ce.rows, true
}

// Put materializes one block's rows. The cache takes ownership of rows;
// key is copied. Persistence is write-behind.
func (c *ResultCache) Put(key, rows []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	ce := &cacheEntry{key: string(key), rows: rows, size: int64(len(rows))}
	c.insert(ce)
	c.stats.Puts++
	c.stats.BytesMaterialized += int64(len(rows))
	c.persist(ce.key, rows)
}

// persist enqueues an inserted item's write, then evicts down to the
// bound: the write goes ahead of any tombstone the eviction enqueues for
// the same item. Caller holds c.mu.
func (c *ResultCache) persist(key string, val []byte) {
	if c.st != nil {
		// Sending under c.mu serializes against Close; the flusher
		// never takes c.mu, so a full channel drains independently.
		c.flushCh <- flushOp{key: []byte(key), val: val}
	}
	c.evictTo(c.maxBytes)
}

// Manifest returns the entry keys a committed query produced, if known,
// and marks the manifest recently used.
func (c *ResultCache) Manifest(queryKey string) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.manifests[queryKey]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.ManifestHits++
	return el.Value.(*cacheEntry).keys, true
}

// Commit records a completed query's entry set. The manifest is
// enqueued behind the entries it references (single FIFO flusher), so
// a persisted manifest implies persisted entries.
func (c *ResultCache) Commit(queryKey string, entryKeys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	keys := append([]string(nil), entryKeys...)
	c.insert(&cacheEntry{key: queryKey, keys: keys, size: manifestSize(queryKey, keys)})
	c.persist(queryKey, encodeManifest(keys))
}

func (c *ResultCache) flusher() {
	defer c.flushWG.Done()
	for op := range c.flushCh {
		if op.done != nil {
			close(op.done)
			continue
		}
		// A write failure here loses persistence, not correctness: the
		// in-memory entry still serves this process, and reload just
		// sees fewer entries. A failed tombstone leaves a key the next
		// reload serves or evicts again.
		if op.del {
			_ = c.st.deleteRaw(CacheFile, op.key)
		} else {
			_ = c.st.PutRaw(CacheFile, op.key, op.val)
		}
	}
}

// Flush blocks until every previously enqueued write reached the store.
func (c *ResultCache) Flush() {
	c.mu.Lock()
	if c.closed || c.st == nil {
		c.mu.Unlock()
		return
	}
	done := make(chan struct{})
	c.flushCh <- flushOp{done: done}
	c.mu.Unlock()
	<-done
	_ = c.st.Flush()
}

// Close flushes pending writes and stops the flusher. The cache serves
// only misses afterwards.
func (c *ResultCache) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	st := c.st
	if st != nil {
		close(c.flushCh)
	}
	c.mu.Unlock()
	if st != nil {
		c.flushWG.Wait()
		_ = st.Flush()
	}
}

// Stats returns a counter snapshot.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.BytesInMemory = c.curBytes
	st.Manifests = len(c.manifests)
	return st
}
