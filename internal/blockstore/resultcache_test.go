package blockstore

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), Replication: 2, NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func ek(i int) []byte {
	key := AppendEntryKeyPrefix(nil, "svc:data", "fp01", 1000)
	return append(key, byte(i))
}

func TestResultCachePutGetLRU(t *testing.T) {
	c, err := NewResultCache(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get(ek(0)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(ek(0), make([]byte, 60))
	c.Put(ek(1), make([]byte, 60)) // evicts entry 0
	if _, ok := c.Get(ek(0)); ok {
		t.Fatal("evicted entry still served")
	}
	if rows, ok := c.Get(ek(1)); !ok || len(rows) != 60 {
		t.Fatal("expected hit on entry 1")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResultCachePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Replication: 2, NumNodes: 3}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewResultCache(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 5; i++ {
		k := ek(i)
		c.Put(k, []byte(fmt.Sprintf("rows-%d", i)))
		keys = append(keys, string(k))
	}
	qk := QueryKey("svc:data", "fp01", 1000, "plan")
	c.Commit(qk, keys)
	c.Close()
	s.Close()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, err := NewResultCache(s2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 5; i++ {
		rows, ok := c2.Get(ek(i))
		if !ok || !bytes.Equal(rows, []byte(fmt.Sprintf("rows-%d", i))) {
			t.Fatalf("entry %d lost across reopen", i)
		}
	}
	got, ok := c2.Manifest(qk)
	if !ok || len(got) != 5 {
		t.Fatalf("manifest lost across reopen: %v %v", got, ok)
	}
	if st := c2.Stats(); st.ReloadedEntries != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManifestDroppedWhenEntryMissing(t *testing.T) {
	// Crash between entry flush and manifest commit, inverted: a
	// manifest that references an entry the store never got must be
	// dropped on reload, leaving per-block reuse only.
	dir := t.TempDir()
	cfg := Config{Dir: dir, Replication: 2, NumNodes: 3}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewResultCache(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(ek(0), []byte("rows-0"))
	qk := QueryKey("svc:data", "fp01", 1000, "plan")
	// Manifest claims two entries but only one was ever written.
	c.Commit(qk, []string{string(ek(0)), string(ek(1))})
	c.Close()
	s.Close()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, err := NewResultCache(s2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Manifest(qk); ok {
		t.Fatal("manifest with missing entry survived reload")
	}
	if _, ok := c2.Get(ek(0)); !ok {
		t.Fatal("surviving entry should still serve per-block reuse")
	}
	if st := c2.Stats(); st.DroppedManifests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEntryKeysDistinguishIdentity(t *testing.T) {
	base := AppendEntryKeyPrefix(nil, "svc:data", "fp01", 1000)
	otherFP := AppendEntryKeyPrefix(nil, "svc:data", "fp02", 1000)
	otherCard := AppendEntryKeyPrefix(nil, "svc:data", "fp01", 1001)
	otherTag := AppendEntryKeyPrefix(nil, "svc:datb", "fp01", 1000)
	for i, other := range [][]byte{otherFP, otherCard, otherTag} {
		if bytes.Equal(base, other) {
			t.Fatalf("prefix %d collides with base", i)
		}
	}
	c, err := NewResultCache(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Put(append(append([]byte(nil), base...), 0x7), []byte("rows"))
	if _, ok := c.Get(append(append([]byte(nil), otherCard...), 0x7)); ok {
		t.Fatal("cardinality change did not invalidate")
	}
}

func TestResultCacheBoundsManifests(t *testing.T) {
	const bound = 64 << 10
	c, err := NewResultCache(nil, bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Put(ek(0), make([]byte, 100))
	var last string
	for i := 0; i < 10000; i++ {
		last = QueryKey("svc:data", fmt.Sprintf("fp%05d", i), 1000, "plan")
		c.Commit(last, []string{string(ek(0))})
		if i%100 == 0 {
			// Touching the first manifest keeps it against the stream of
			// newer ones.
			c.Manifest(QueryKey("svc:data", "fp00000", 1000, "plan"))
		}
	}
	st := c.Stats()
	if st.BytesInMemory > bound {
		t.Fatalf("%d bytes in memory over a %d-byte bound", st.BytesInMemory, bound)
	}
	perManifest := manifestSize(last, []string{string(ek(0))})
	if max := int(bound / perManifest); st.Manifests > max || st.Manifests < max/2 {
		t.Fatalf("%d manifests held, want about %d under the bound", st.Manifests, max)
	}
	if _, ok := c.Manifest(last); !ok {
		t.Fatal("newest manifest evicted")
	}
	if _, ok := c.Manifest(QueryKey("svc:data", "fp00001", 1000, "plan")); ok {
		t.Fatal("an old untouched manifest survived 10 000 newer ones")
	}
	if _, ok := c.Manifest(QueryKey("svc:data", "fp00000", 1000, "plan")); !ok {
		t.Fatal("a manifest read every 100 commits was evicted")
	}
}

// cacheIndexLen is the number of keys the store's index holds for the
// cache file.
func cacheIndexLen(t *testing.T, s *Store) int {
	t.Helper()
	blocks, err := s.Blocks(CacheFile)
	if err != nil {
		t.Fatal(err)
	}
	return len(blocks)
}

// replicaNodes returns the nodes holding key's replicas in the cache file.
func replicaNodes(t *testing.T, s *Store, key []byte) []int {
	t.Helper()
	blocks, err := s.Blocks(CacheFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if bytes.Equal(b.Key, key) {
			return b.Replicas
		}
	}
	return nil
}

// TestEvictedCacheKeysLeaveStoreIndex holds the cache file's index to
// what the cache holds, across a reopen, and the tombstones that keep it
// so to the store's recovery rules: per node, and torn like any entry.
func TestEvictedCacheKeysLeaveStoreIndex(t *testing.T) {
	t.Run("index-holds-live-keys", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Dir: dir, Replication: 2, NumNodes: 3}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewResultCache(s, 2000)
		if err != nil {
			t.Fatal(err)
		}
		// An entry over the bound is evicted as it is put: its write must
		// still reach the store ahead of its tombstone.
		c.Put(ek(200), make([]byte, 3000))
		for i := 0; i < 100; i++ {
			c.Put(ek(i), bytes.Repeat([]byte{byte(i)}, 100))
			if i%2 == 1 {
				c.Commit(QueryKey("svc:data", "fp01", 1000, fmt.Sprint("plan", i)), []string{string(ek(i - 1)), string(ek(i))})
			}
		}
		c.Flush()
		st := c.Stats()
		if st.Evictions == 0 || st.Manifests == 0 {
			t.Fatalf("nothing evicted or no manifest kept: %+v", st)
		}
		if n := cacheIndexLen(t, s); n != st.Entries+st.Manifests {
			t.Fatalf("cache file indexes %d keys, cache holds %d entries + %d manifests", n, st.Entries, st.Manifests)
		}
		c.Close()
		s.Close()

		s2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if n := cacheIndexLen(t, s2); n != st.Entries+st.Manifests {
			t.Fatalf("after reopen the cache file indexes %d keys, want %d", n, st.Entries+st.Manifests)
		}
		for _, k := range [][]byte{ek(0), ek(200)} {
			if _, err := s2.ReadByKey(CacheFile, k); err == nil {
				t.Fatalf("evicted entry %x came back on reopen", k)
			}
		}
		c2, err := NewResultCache(s2, 2000)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		if st2 := c2.Stats(); st2.Entries != st.Entries || st2.Manifests != st.Manifests || st2.Evictions != 0 {
			t.Fatalf("reloaded %+v, closed with %+v", st2, st)
		}
		if rows, ok := c2.Get(ek(99)); !ok || !bytes.Equal(rows, bytes.Repeat([]byte{99}, 100)) {
			t.Fatal("newest entry lost across reopen")
		}
	})
	t.Run("concurrent-puts-and-commits", func(t *testing.T) {
		s := newTestStore(t)
		c, err := NewResultCache(s, 3000)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := append(ek(g), byte(i))
					c.Put(k, make([]byte, 50))
					c.Get(ek(g))
					qk := QueryKey("svc:data", "fp01", 1000, fmt.Sprint(g, "/", i%40))
					c.Commit(qk, []string{string(k)})
					c.Manifest(qk)
				}
			}(g)
		}
		wg.Wait()
		c.Flush()
		st := c.Stats()
		if n := cacheIndexLen(t, s); n != st.Entries+st.Manifests {
			t.Fatalf("cache file indexes %d keys, cache holds %d entries + %d manifests", n, st.Entries, st.Manifests)
		}
	})
	t.Run("tombstone-drops-one-nodes-replica", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Dir: dir, Replication: 2, NumNodes: 3}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		key := ek(7)
		if err := s.PutRaw(CacheFile, key, []byte("rows-7")); err != nil {
			t.Fatal(err)
		}
		nodes := replicaNodes(t, s, key)
		if len(nodes) != 2 {
			t.Fatalf("replicas %v", nodes)
		}
		s.mu.Lock()
		err = s.tombstoneLocked(nodes[0], CacheFile, key)
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if got := replicaNodes(t, s, key); len(got) != 1 || got[0] != nodes[1] {
			t.Fatalf("after a tombstone on node %d: replicas %v", nodes[0], got)
		}
		s.Close()

		s, err = Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := replicaNodes(t, s, key); len(got) != 1 || got[0] != nodes[1] {
			t.Fatalf("after reopen: replicas %v, want [%d]", got, nodes[1])
		}
		if v, err := s.ReadByKey(CacheFile, key); err != nil || string(v) != "rows-7" {
			t.Fatalf("surviving replica reads %q, %v", v, err)
		}
		s.FailNode(nodes[1])
		if _, err := s.ReadByKey(CacheFile, key); err == nil {
			t.Fatal("read served by the node whose replica was deleted")
		}
	})
	t.Run("torn-tombstone-truncates", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Dir: dir, Replication: 2, NumNodes: 3}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		key := ek(3)
		if err := s.PutRaw(CacheFile, key, []byte("rows-3")); err != nil {
			t.Fatal(err)
		}
		nodes := replicaNodes(t, s, key)
		if err := s.deleteRaw(CacheFile, key); err != nil {
			t.Fatal(err)
		}
		if got := replicaNodes(t, s, key); got != nil {
			t.Fatalf("deleted key still indexed on %v", got)
		}
		s.Close()

		// Tear the last byte of one node's tombstone: recovery truncates it
		// away, so that node's replica is live again and the other's is not.
		path := SegmentPath(dir, nodes[0], CacheFile)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-1); err != nil {
			t.Fatal(err)
		}
		s, err = Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if st := s.Stats(); st.TornTails != 1 || st.DroppedEntries != 1 {
			t.Fatalf("stats %+v, want one torn tail", st)
		}
		if got := replicaNodes(t, s, key); len(got) != 1 || got[0] != nodes[0] {
			t.Fatalf("replicas %v, want [%d]", got, nodes[0])
		}
		if v, err := s.ReadByKey(CacheFile, key); err != nil || string(v) != "rows-3" {
			t.Fatalf("reads %q, %v", v, err)
		}
	})
}

func TestLegacyCacheFileDropped(t *testing.T) {
	s := newTestStore(t)
	if err := s.PutRaw(legacyCacheFile, ek(0), []byte("rows-0")); err != nil {
		t.Fatal(err)
	}
	if l := s.List(); len(l) != 0 {
		t.Fatalf("List shows internal files: %v", l)
	}
	c, err := NewResultCache(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := s.Blocks(legacyCacheFile); err == nil {
		t.Fatal("the legacy cache file survived a cache open")
	}
	for node := 0; node < s.Config().NumNodes; node++ {
		if _, err := os.Stat(SegmentPath(s.Dir(), node, legacyCacheFile)); !os.IsNotExist(err) {
			t.Fatalf("node %d still holds a legacy cache segment: %v", node, err)
		}
	}
	if _, ok := c.Get(ek(0)); ok {
		t.Fatal("an entry of the legacy cache file was served")
	}
}
