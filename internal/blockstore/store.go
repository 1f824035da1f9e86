// Package blockstore is the persistent replicated block store under the
// evaluation: logical files are sequences of columnar-compressed blocks
// appended to per-node segment files, every entry carries a CRC32C
// footer with its record count, and the in-memory index is rebuilt from
// segment scans on open — so a service restart reopens its datasets
// (identity, cardinality, schema digest) without recounting a record.
//
// It has the properties the paper's evaluation depends on — block-granular
// input splits, replica placement for locality and failure injection —
// and the ones a store needs to deserve the name: persistence across
// restarts, per-column compression, checksum-verified reads that fail
// over to a surviving replica, and torn-tail truncation so a crash
// mid-append recovers to the last committed block.
package blockstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"github.com/casm-project/casm/internal/cube"
	"github.com/casm-project/casm/internal/recio"
)

// MetaFile is the logical file holding store metadata entries (schema
// digests, file generations). It is hidden from List.
const MetaFile = "__meta__"

// CacheFile is the logical file backing the materialized result cache.
const CacheFile = "__cache__"

// Config parameterizes a store.
type Config struct {
	// Dir is the root directory; created if absent. Required.
	Dir string
	// BlockSize bounds a data block's decoded (framed) size in bytes.
	// Default 4 MiB.
	BlockSize int
	// Replication is the number of replicas per entry. Default 3.
	Replication int
	// NumNodes is the number of storage nodes (subdirectories).
	// Default 10.
	NumNodes int
	// Seed drives replica placement; placement is deterministic per
	// seed within one store instance.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 20
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.NumNodes <= 0 {
		c.NumNodes = 10
	}
	return c
}

// BlockInfo describes one block of a logical file.
type BlockInfo struct {
	File     string
	Index    int
	Key      []byte
	Size     int // decoded (framed) size in bytes
	Records  int
	Replicas []int // node IDs holding a copy, in placement order
}

// FileInfo summarizes a logical file from the index alone — cardinality
// comes from block footers, never from rescanning records.
type FileInfo struct {
	Name         string `json:"name"`
	Blocks       int    `json:"blocks"`
	Records      int64  `json:"records"`
	RawBytes     int64  `json:"raw_bytes"`
	StoredBytes  int64  `json:"stored_bytes"`
	Arity        int    `json:"arity,omitempty"`
	SchemaDigest string `json:"schema_digest,omitempty"`
}

// Stats is a point-in-time snapshot of store shape and fault counters.
type Stats struct {
	Files             int   `json:"files"`
	Blocks            int   `json:"blocks"`
	RawBytes          int64 `json:"raw_bytes"`
	StoredBytes       int64 `json:"stored_bytes"`
	TornTails         int64 `json:"torn_tails_truncated"`
	DroppedEntries    int64 `json:"dropped_entries"`
	ChecksumFailovers int64 `json:"checksum_failovers"`
	BlockReads        int64 `json:"block_reads"`
	BytesRead         int64 `json:"bytes_read"`
}

// replicaLoc locates one replica of an entry inside a node's segment.
type replicaLoc struct {
	node int
	off  int64 // entry start offset in the segment file
	n    int64 // entry length in bytes (checksum included)
}

type blockMeta struct {
	key        []byte
	flags      uint64
	arity      int
	recCount   int
	rawLen     int
	payloadLen int
	crc        uint32
	replicas   []replicaLoc
}

type storeFile struct {
	blocks []*blockMeta // sorted by key
	byKey  map[string]*blockMeta
}

func (f *storeFile) insert(bm *blockMeta) {
	f.byKey[string(bm.key)] = bm
	i := sort.Search(len(f.blocks), func(i int) bool {
		return bytes.Compare(f.blocks[i].key, bm.key) >= 0
	})
	f.blocks = append(f.blocks, nil)
	copy(f.blocks[i+1:], f.blocks[i:])
	f.blocks[i] = bm
}

// writeHandle is one node segment's append state. Appends go through a
// bufio.Writer, so a crash mid-ingest leaves a torn tail for recovery
// to truncate; reads through the store flush first.
type writeHandle struct {
	f     *os.File
	bw    *bufio.Writer
	off   int64 // next append offset (logical, includes buffered bytes)
	dirty bool
}

// Store is a persistent replicated block store. All methods are safe
// for concurrent use.
type Store struct {
	mu      sync.RWMutex
	cfg     Config
	rng     *rand.Rand
	files   map[string]*storeFile
	down    map[int]bool
	handles map[string]*writeHandle // keyed node|file
	stats   Stats
	closed  bool
}

// Open opens (creating if necessary) the store rooted at cfg.Dir,
// rebuilding the block index from segment scans. Torn segment tails are
// truncated to the last entry whose checksum verifies.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("blockstore: Config.Dir is required")
	}
	if cfg.Replication > cfg.NumNodes {
		return nil, fmt.Errorf("blockstore: replication %d exceeds node count %d", cfg.Replication, cfg.NumNodes)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		files:   make(map[string]*storeFile),
		down:    make(map[int]bool),
		handles: make(map[string]*writeHandle),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the store's configuration (with defaults applied).
func (s *Store) Config() Config { return s.cfg }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// recover scans every node segment, registering entries and truncating
// torn tails. Within a segment, later entries win for a repeated key
// (meta and cache entries are last-writer-wins); across nodes, entries
// with equal key and checksum merge as replicas.
func (s *Store) recover() error {
	for node := 0; node < s.cfg.NumNodes; node++ {
		dir := nodeDir(s.cfg.Dir, node)
		ents, err := os.ReadDir(dir)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		for _, de := range ents {
			file, ok := segFile(de.Name())
			if !ok || de.IsDir() {
				continue
			}
			if err := s.scanSegment(node, file, filepath.Join(dir, de.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Store) scanSegment(node int, file, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic) {
		// Not a segment (or a crash before the header landed): drop it.
		s.stats.TornTails++
		return os.Remove(path)
	}
	off := len(segMagic)
	for off < len(data) {
		e, next, err := parseEntry(data, off)
		if err != nil {
			// Torn tail: everything before off is checksum-verified, so
			// truncate there and keep the committed prefix.
			s.stats.TornTails++
			s.stats.DroppedEntries++
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return terr
			}
			break
		}
		s.register(node, file, e, int64(off), int64(next-off))
		off = next
	}
	h := s.handle(node, file, false)
	if h != nil && int64(off) > h.off {
		h.off = int64(off)
	} else if h == nil {
		s.handles[handleKey(node, file)] = &writeHandle{off: int64(off)}
	}
	return nil
}

func handleKey(node int, file string) string { return strconv.Itoa(node) + "|" + file }

func (s *Store) register(node int, file string, e entry, off, n int64) {
	f := s.files[file]
	if f == nil {
		f = &storeFile{byKey: make(map[string]*blockMeta)}
		s.files[file] = f
	}
	if bm := f.byKey[string(e.key)]; bm != nil {
		if bm.crc == e.crc {
			// Another replica of the same content.
			for i, r := range bm.replicas {
				if r.node == node {
					// Re-append on the same node: later wins.
					bm.replicas[i] = replicaLoc{node: node, off: off, n: n}
					return
				}
			}
			bm.replicas = append(bm.replicas, replicaLoc{node: node, off: off, n: n})
			return
		}
		// Same key, different content: last writer wins (meta/cache
		// overwrite semantics). Restart the replica set.
		s.stats.RawBytes -= int64(bm.rawLen)
		s.stats.StoredBytes -= int64(bm.payloadLen)
		s.stats.Blocks--
		bm.flags, bm.arity, bm.recCount = e.flags, e.arity, e.recCount
		bm.rawLen, bm.payloadLen, bm.crc = e.rawLen, len(e.payload), e.crc
		bm.replicas = []replicaLoc{{node: node, off: off, n: n}}
		s.stats.RawBytes += int64(bm.rawLen)
		s.stats.StoredBytes += int64(bm.payloadLen)
		s.stats.Blocks++
		return
	}
	bm := &blockMeta{
		key:        append([]byte(nil), e.key...),
		flags:      e.flags,
		arity:      e.arity,
		recCount:   e.recCount,
		rawLen:     e.rawLen,
		payloadLen: len(e.payload),
		crc:        e.crc,
		replicas:   []replicaLoc{{node: node, off: off, n: n}},
	}
	f.insert(bm)
	s.stats.Blocks++
	s.stats.RawBytes += int64(bm.rawLen)
	s.stats.StoredBytes += int64(bm.payloadLen)
}

func (s *Store) handle(node int, file string, create bool) *writeHandle {
	h := s.handles[handleKey(node, file)]
	if h == nil {
		if !create {
			return nil
		}
		h = &writeHandle{}
		s.handles[handleKey(node, file)] = h
	}
	return h
}

// openHandle ensures the handle has an open file, writing the segment
// header if the file is new. Caller holds s.mu.
func (s *Store) openHandle(node int, file string) (*writeHandle, error) {
	h := s.handle(node, file, true)
	if h.f != nil {
		return h, nil
	}
	dir := nodeDir(s.cfg.Dir, node)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(file)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	h.f = f
	h.bw = bufio.NewWriterSize(f, 256<<10)
	if st.Size() == 0 {
		if _, err := h.bw.WriteString(segMagic); err != nil {
			return nil, err
		}
		h.off = int64(len(segMagic))
		h.dirty = true
	} else {
		h.off = st.Size()
	}
	return h, nil
}

// putEntry appends one entry to Replication node segments and registers
// it in the index. Caller holds s.mu.
func (s *Store) putEntry(file string, key []byte, flags uint64, arity, recCount, rawLen int, payload []byte) error {
	if s.closed {
		return fmt.Errorf("blockstore: store closed")
	}
	enc := appendEntry(nil, key, flags, arity, recCount, rawLen, payload)
	replicas := s.placeReplicas()
	for _, node := range replicas {
		h, err := s.openHandle(node, file)
		if err != nil {
			return err
		}
		off := h.off
		if _, err := h.bw.Write(enc); err != nil {
			return err
		}
		h.off += int64(len(enc))
		h.dirty = true
		e := entry{key: key, flags: flags, arity: arity, recCount: recCount,
			rawLen: rawLen, payload: payload, crc: crcOf(enc)}
		s.register(node, file, e, off, int64(len(enc)))
	}
	return nil
}

func crcOf(enc []byte) uint32 {
	return binary.LittleEndian.Uint32(enc[len(enc)-4:])
}

// placeReplicas picks Replication distinct nodes, preferring live ones.
func (s *Store) placeReplicas() []int {
	perm := s.rng.Perm(s.cfg.NumNodes)
	out := make([]int, 0, s.cfg.Replication)
	for _, n := range perm {
		if s.down[n] {
			continue
		}
		out = append(out, n)
		if len(out) == s.cfg.Replication {
			return out
		}
	}
	// Not enough live nodes: fall back to failed ones so writes still
	// succeed (reads fail until recovery, as with a real DFS in
	// degraded mode).
	for _, n := range perm {
		if s.down[n] {
			out = append(out, n)
			if len(out) == s.cfg.Replication {
				break
			}
		}
	}
	return out
}

// flushFile pushes any buffered appends for a logical file to the OS so
// reads observe them. Caller holds s.mu (read path upgrades to Lock).
func (s *Store) flushFileLocked(file string) error {
	for node := 0; node < s.cfg.NumNodes; node++ {
		h := s.handles[handleKey(node, file)]
		if h == nil || !h.dirty || h.bw == nil {
			continue
		}
		if err := h.bw.Flush(); err != nil {
			return err
		}
		h.dirty = false
	}
	return nil
}

// PutRaw appends one raw entry under (file, key). ReadBlock and ScanRaw
// return the payload verbatim. Re-putting a key replaces it (last
// writer wins after reopen too).
func (s *Store) PutRaw(file string, key, payload []byte) error {
	if file == "" || len(key) == 0 {
		return fmt.Errorf("blockstore: empty file or key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putEntry(file, key, 0, 0, 0, len(payload), payload)
}

// Blocks lists a file's block metadata in key order, for split planning.
func (s *Store) Blocks(file string) ([]BlockInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[file]
	if !ok {
		return nil, fmt.Errorf("blockstore: file %q not found", file)
	}
	out := make([]BlockInfo, len(f.blocks))
	for i, bm := range f.blocks {
		out[i] = s.infoLocked(file, i, bm)
	}
	return out, nil
}

func (s *Store) infoLocked(file string, i int, bm *blockMeta) BlockInfo {
	reps := make([]int, len(bm.replicas))
	for j, r := range bm.replicas {
		reps[j] = r.node
	}
	return BlockInfo{File: file, Index: i, Key: append([]byte(nil), bm.key...),
		Size: bm.rawLen, Records: bm.recCount, Replicas: reps}
}

// ReadBlock returns one block's decoded (framed) contents, reading from
// the first replica whose checksum verifies and counting a failover for
// each replica that doesn't.
func (s *Store) ReadBlock(file string, index int) ([]byte, error) {
	bm, payload, err := s.readIndexed(file, index)
	if err != nil {
		return nil, err
	}
	if bm.flags&flagColumnar != 0 {
		return frameColumnar(payload, bm.arity, bm.recCount, bm.rawLen)
	}
	return payload, nil
}

// ReadBlockRows opens one data block for decoded-row reading: the same
// verified, failing-over entry read as ReadBlock (and the same BlockReads
// and BytesRead accounting), with the columns decoded straight into rows
// instead of back into frames. The reader owns the entry bytes.
func (s *Store) ReadBlockRows(file string, index int) (*RowReader, error) {
	bm, payload, err := s.readIndexed(file, index)
	if err != nil {
		return nil, err
	}
	if bm.flags&flagColumnar == 0 {
		return nil, fmt.Errorf("blockstore: block %d of %q holds no columnar records", index, file)
	}
	return newRowReader(payload, bm.arity, bm.recCount, bm.rawLen)
}

// readIndexed reads and verifies the entry of a file's index-th block.
func (s *Store) readIndexed(file string, index int) (*blockMeta, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[file]
	if !ok {
		return nil, nil, fmt.Errorf("blockstore: file %q not found", file)
	}
	if index < 0 || index >= len(f.blocks) {
		return nil, nil, fmt.Errorf("blockstore: block %d of %q out of range [0,%d)", index, file, len(f.blocks))
	}
	bm := f.blocks[index]
	payload, err := s.readEntryLocked(file, bm)
	return bm, payload, err
}

// readEntryLocked reads and verifies one entry, failing over across
// replicas. Caller holds s.mu (write lock: flush + counters).
func (s *Store) readEntryLocked(file string, bm *blockMeta) ([]byte, error) {
	if err := s.flushFileLocked(file); err != nil {
		return nil, err
	}
	var lastErr error
	live := 0
	for _, r := range bm.replicas {
		if s.down[r.node] {
			continue
		}
		live++
		payload, err := s.readReplica(file, bm, r)
		if err != nil {
			s.stats.ChecksumFailovers++
			lastErr = err
			continue
		}
		s.stats.BlockReads++
		s.stats.BytesRead += int64(len(payload))
		return payload, nil
	}
	if live == 0 {
		return nil, fmt.Errorf("blockstore: block %x of %q unavailable: all %d replicas on failed nodes",
			bm.key, file, len(bm.replicas))
	}
	return nil, fmt.Errorf("blockstore: block %x of %q unreadable on all live replicas: %w", bm.key, file, lastErr)
}

func (s *Store) readReplica(file string, bm *blockMeta, r replicaLoc) ([]byte, error) {
	fh, err := os.Open(SegmentPath(s.cfg.Dir, r.node, file))
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	buf := make([]byte, r.n)
	if _, err := fh.ReadAt(buf, r.off); err != nil {
		return nil, err
	}
	e, _, err := parseEntry(buf, 0)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(e.key, bm.key) || e.crc != bm.crc {
		return nil, fmt.Errorf("blockstore: replica on node %d holds a different entry", r.node)
	}
	if e.flags&flagColumnar != 0 {
		// The header is checksummed, not authenticated: a shape the payload
		// cannot back fails this replica over like a bad checksum does.
		if err := checkColumnarShape(e.arity, e.recCount, e.rawLen, len(e.payload)); err != nil {
			return nil, err
		}
	}
	// The payload aliases buf, which nothing else holds: no second copy.
	return e.payload, nil
}

// ScanRaw calls fn for every entry of a file in key order, with decoded
// payloads. Used to reload the result cache on open.
func (s *Store) ScanRaw(file string, fn func(key, payload []byte) error) error {
	s.mu.RLock()
	f, ok := s.files[file]
	var keys [][]byte
	if ok {
		keys = make([][]byte, len(f.blocks))
		for i, bm := range f.blocks {
			keys[i] = append([]byte(nil), bm.key...)
		}
	}
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	for _, key := range keys {
		payload, err := s.ReadByKey(file, key)
		if err != nil {
			return err
		}
		if err := fn(key, payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadByKey reads one entry's decoded contents by exact key.
func (s *Store) ReadByKey(file string, key []byte) ([]byte, error) {
	s.mu.Lock()
	f, ok := s.files[file]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("blockstore: file %q not found", file)
	}
	bm, ok := f.byKey[string(key)]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("blockstore: key %x not found in %q", key, file)
	}
	payload, err := s.readEntryLocked(file, bm)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if bm.flags&flagColumnar != 0 {
		return frameColumnar(payload, bm.arity, bm.recCount, bm.rawLen)
	}
	return payload, nil
}

// List returns the logical file names in sorted order, internal files
// (meta, result cache) excluded.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		if n == MetaFile || n == CacheFile {
			continue
		}
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FileInfo summarizes one logical file. Records and sizes come from the
// index (block footers); the schema digest from store metadata.
func (s *Store) FileInfo(file string) (FileInfo, error) {
	s.mu.RLock()
	f, ok := s.files[file]
	if !ok {
		s.mu.RUnlock()
		return FileInfo{}, fmt.Errorf("blockstore: file %q not found", file)
	}
	info := FileInfo{Name: file, Blocks: len(f.blocks)}
	for _, bm := range f.blocks {
		info.Records += int64(bm.recCount)
		info.RawBytes += int64(bm.rawLen)
		info.StoredBytes += int64(bm.payloadLen)
		if bm.arity > 0 {
			info.Arity = bm.arity
		}
	}
	s.mu.RUnlock()
	if d, ok := s.GetMeta("schema/" + file); ok {
		info.SchemaDigest = string(d)
	}
	return info, nil
}

// Size returns a file's decoded size in bytes.
func (s *Store) Size(file string) (int64, error) {
	info, err := s.FileInfo(file)
	if err != nil {
		return 0, err
	}
	return info.RawBytes, nil
}

// Delete removes a logical file's segments from every node and bumps
// the file's persisted generation, so a same-named re-ingest presents
// a new dataset identity to the result cache even when the replacement
// happens to have identical cardinality.
func (s *Store) Delete(file string) error {
	if err := s.deleteLocked(file); err != nil {
		return err
	}
	gen := s.FileGeneration(file)
	return s.PutMeta("filegen/"+file, []byte(strconv.FormatInt(gen+1, 10)))
}

// FileGeneration returns how many times the name has been deleted: 0
// for a never-deleted file, incrementing on each Delete. Dataset tags
// fold a non-zero generation in, which is what invalidates cached
// results across a re-ingest.
func (s *Store) FileGeneration(file string) int64 {
	v, ok := s.GetMeta("filegen/" + file)
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// DatasetTag returns the identity tag for datasets served from the
// file: "store:<file>" for a never-deleted name, with the delete
// generation folded in ("store:<file>@g<N>") afterwards. A re-ingest
// under the same name — even at identical cardinality — therefore
// presents a fresh (Tag, NumRecords) identity to the result cache.
func (s *Store) DatasetTag(file string) string {
	if g := s.FileGeneration(file); g > 0 {
		return "store:" + file + "@g" + strconv.FormatInt(g, 10)
	}
	return "store:" + file
}

func (s *Store) deleteLocked(file string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[file]
	if !ok {
		return fmt.Errorf("blockstore: file %q not found", file)
	}
	for _, bm := range f.blocks {
		s.stats.Blocks--
		s.stats.RawBytes -= int64(bm.rawLen)
		s.stats.StoredBytes -= int64(bm.payloadLen)
	}
	delete(s.files, file)
	for node := 0; node < s.cfg.NumNodes; node++ {
		k := handleKey(node, file)
		if h := s.handles[k]; h != nil {
			if h.f != nil {
				h.bw.Flush()
				h.f.Close()
			}
			delete(s.handles, k)
		}
		path := SegmentPath(s.cfg.Dir, node, file)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// PutMeta stores a metadata key/value (last writer wins, persisted).
func (s *Store) PutMeta(key string, value []byte) error {
	return s.PutRaw(MetaFile, []byte(key), value)
}

// GetMeta returns a metadata value, if present.
func (s *Store) GetMeta(key string) ([]byte, bool) {
	v, err := s.ReadByKey(MetaFile, []byte(key))
	if err != nil {
		return nil, false
	}
	return v, true
}

// FailNode marks a storage node as failed; its replicas become
// unreadable until RecoverNode.
func (s *Store) FailNode(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[id] = true
}

// RecoverNode brings a failed node back.
func (s *Store) RecoverNode(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.down, id)
}

// Stats returns a snapshot of store shape and fault counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Files = 0
	for n := range s.files {
		if n != MetaFile && n != CacheFile {
			st.Files++
		}
	}
	return st
}

// Flush pushes all buffered appends to the OS.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.handles {
		if h.dirty && h.bw != nil {
			if err := h.bw.Flush(); err != nil {
				return err
			}
			h.dirty = false
		}
	}
	return nil
}

// Close flushes and closes every segment handle. The store is unusable
// afterwards; reopen with Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, h := range s.handles {
		if h.bw != nil {
			if err := h.bw.Flush(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if h.f != nil {
			if err := h.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			h.f, h.bw = nil, nil
		}
	}
	s.closed = true
	return firstErr
}

// --- data ingest ---

// Writer appends records to a logical file, cutting columnar blocks at
// the configured block size. Not safe for concurrent use; everything
// else on the store remains usable while a Writer is open.
type Writer struct {
	s        *Store
	file     string
	arity    int
	rows     []int64
	rec      []byte
	rawLen   int
	recCount int
	nextIdx  uint32
	records  int64
	digest   string
	closed   bool
	err      error
}

// NewWriter opens an appending writer. If the file already has blocks,
// new ones continue after them (same arity required). schemaDigest, if
// non-empty, is recorded in store metadata on Close.
func (s *Store) NewWriter(file string, arity int, schemaDigest string) (*Writer, error) {
	if file == "" || file == MetaFile || file == CacheFile {
		return nil, fmt.Errorf("blockstore: invalid data file name %q", file)
	}
	if arity <= 0 {
		return nil, fmt.Errorf("blockstore: arity must be positive")
	}
	w := &Writer{s: s, file: file, arity: arity, digest: schemaDigest}
	s.mu.RLock()
	if f, ok := s.files[file]; ok {
		for _, bm := range f.blocks {
			if bm.arity != 0 && bm.arity != arity {
				s.mu.RUnlock()
				return nil, fmt.Errorf("blockstore: file %q has arity %d, writer wants %d", file, bm.arity, arity)
			}
		}
		w.nextIdx = uint32(len(f.blocks))
	}
	s.mu.RUnlock()
	return w, nil
}

// Append buffers one record, flushing a block when the framed size
// would exceed the configured block size.
func (w *Writer) Append(rec cube.Record) error {
	if w.err != nil {
		return w.err
	}
	if len(rec) != w.arity {
		w.err = fmt.Errorf("blockstore: record arity %d, writer arity %d", len(rec), w.arity)
		return w.err
	}
	w.rec = recio.AppendRecord(w.rec[:0], rec)
	frameLen := recio.UvarintLen(uint64(len(w.rec))) + len(w.rec)
	if w.recCount > 0 && w.rawLen+frameLen > w.s.cfg.BlockSize {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	w.rows = append(w.rows, rec...)
	w.rawLen += frameLen
	w.recCount++
	w.records++
	return nil
}

func (w *Writer) flushBlock() error {
	if w.recCount == 0 {
		return nil
	}
	payload := appendColumnar(nil, w.rows, w.arity, w.recCount)
	var key [4]byte
	binary.BigEndian.PutUint32(key[:], w.nextIdx)
	w.s.mu.Lock()
	err := w.s.putEntry(w.file, key[:], flagColumnar, w.arity, w.recCount, w.rawLen, payload)
	w.s.mu.Unlock()
	if err != nil {
		w.err = err
		return err
	}
	w.nextIdx++
	w.rows = w.rows[:0]
	w.rawLen, w.recCount = 0, 0
	return nil
}

// Close flushes the final block, records the schema digest, and pushes
// buffered segment bytes to the OS.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	if w.digest != "" {
		if err := w.s.PutMeta("schema/"+w.file, []byte(w.digest)); err != nil {
			w.err = err
			return err
		}
	}
	if err := w.s.Flush(); err != nil {
		w.err = err
		return err
	}
	w.closed = true
	w.err = fmt.Errorf("blockstore: writer closed")
	return nil
}

// WriteRecords ingests records into a (new or existing) logical file in
// one call.
func (s *Store) WriteRecords(file string, arity int, schemaDigest string, records []cube.Record) error {
	w, err := s.NewWriter(file, arity, schemaDigest)
	if err != nil {
		return err
	}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			return err
		}
	}
	return w.Close()
}
