package storage

import (
	"fmt"
	"sync"
)

// PoolStats counts buffer-pool activity. Hits+Misses equals the number of
// Fetch calls; Misses drive physical reads on the disk manager. FenceWaits
// counts fetches that parked on a write-back fence — a victim's dirty flush
// still in flight when its page was wanted back — which is the pool-level
// signal that the working set is thrashing across eviction.
type PoolStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Flushes    uint64
	FenceWaits uint64
}

// maxShards bounds how far a pool fans out; 16 latches is plenty for the
// session counts a single embedded engine serves.
const maxShards = 16

// minFramesPerShard is the smallest shard worth creating: below this, clock
// eviction degenerates and small test pools would lose their exact-capacity
// pin semantics, so pools under 2*minFramesPerShard frames stay unsharded.
const minFramesPerShard = 64

// BufferPool caches a bounded number of pages over a DiskManager, using the
// clock (second-chance) replacement policy. All table and index access in
// the engine flows through a pool, which is what makes the paper's
// buffer-size experiments (Fig 8(b), 9(g)) meaningful.
//
// The pool is sharded by page id: each shard owns its own latch, frame
// array and clock hand, so concurrent read sessions fetching disjoint pages
// do not contend on a single mutex. Small pools (under 128 frames) keep a
// single shard, preserving the exact pin-capacity semantics the unit tests
// and the paper's tiny buffer-sweep configurations rely on.
type BufferPool struct {
	disk   DiskManager
	shards []*poolShard
}

// poolShard is one latch domain of the pool.
type poolShard struct {
	mu     sync.Mutex
	disk   DiskManager
	frames []*Page
	table  map[PageID]int // pageID -> frame index
	hand   int            // clock hand
	stats  PoolStats

	// flushing fences dirty victims whose write-back is still in flight:
	// victimLocked registers the victim's id here (under the latch, before
	// the page leaves the table) and the evicting goroutine closes the
	// channel once the WritePage lands. A Fetch of that id must wait on the
	// fence instead of treating the lookup as a miss — reading the page from
	// disk while its flush is in flight could return the stale pre-flush
	// bytes and silently lose the victim's updates.
	flushing map[PageID]chan struct{}
}

// NewBufferPool creates a pool of capacity pages (at least 8) over disk.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 8 {
		capacity = 8
	}
	nshards := capacity / minFramesPerShard
	if nshards > maxShards {
		nshards = maxShards
	}
	if nshards < 1 {
		nshards = 1
	}
	bp := &BufferPool{disk: disk, shards: make([]*poolShard, nshards)}
	base, rem := capacity/nshards, capacity%nshards
	for i := range bp.shards {
		n := base
		if i < rem {
			n++
		}
		bp.shards[i] = &poolShard{
			disk:     disk,
			frames:   make([]*Page, n),
			table:    make(map[PageID]int, n),
			flushing: make(map[PageID]chan struct{}),
		}
	}
	return bp
}

// shardFor maps a page id to its latch domain.
func (bp *BufferPool) shardFor(id PageID) *poolShard {
	return bp.shards[int(id)%len(bp.shards)]
}

// Capacity returns the total number of frames across all shards.
func (bp *BufferPool) Capacity() int {
	c := 0
	for _, sh := range bp.shards {
		c += len(sh.frames)
	}
	return c
}

// Shards returns the number of latch domains (1 for small pools).
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// Disk exposes the underlying disk manager (for stats).
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// Stats returns cumulative counters summed over all shards.
func (bp *BufferPool) Stats() PoolStats {
	var s PoolStats
	for _, sh := range bp.shards {
		sh.mu.Lock()
		s.Hits += sh.stats.Hits
		s.Misses += sh.stats.Misses
		s.Evictions += sh.stats.Evictions
		s.Flushes += sh.stats.Flushes
		s.FenceWaits += sh.stats.FenceWaits
		sh.mu.Unlock()
	}
	return s
}

// ShardStats returns each latch domain's counters separately, in shard
// order. A hot shard (one page-id residue class absorbing most traffic)
// shows up here while the pool-wide sums still look healthy; /metrics
// exports one labeled series per shard from this.
func (bp *BufferPool) ShardStats() []PoolStats {
	out := make([]PoolStats, len(bp.shards))
	for i, sh := range bp.shards {
		sh.mu.Lock()
		out[i] = sh.stats
		sh.mu.Unlock()
	}
	return out
}

// NewPage allocates a fresh page on disk and returns it pinned. A zeroed
// frame is valid content for a fresh page, so the new frame is installed
// immediately; only the dirty victim's flush (if any) happens outside the
// latch.
func (bp *BufferPool) NewPage() (*Page, error) {
	id, err := bp.disk.AllocatePage()
	if err != nil {
		return nil, err
	}
	sh := bp.shardFor(id)
	sh.mu.Lock()
	idx, victim, err := sh.victimLocked()
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	pg := &Page{id: id, pinCount: 1, refbit: true}
	pg.dirty = true // fresh page must be written at least once
	sh.frames[idx] = pg
	sh.table[id] = idx
	sh.mu.Unlock()
	if victim != nil {
		if err := sh.disk.WritePage(victim.id, victim.Data[:]); err != nil {
			// The victim's in-memory copy is the only one holding its
			// updates; undo the allocation's frame grab and keep the victim
			// resident (still dirty) instead of silently dropping it.
			sh.mu.Lock()
			sh.flushDoneLocked(victim.id)
			delete(sh.table, pg.id)
			victim.refbit = true
			sh.frames[idx] = victim
			sh.table[victim.id] = idx
			sh.mu.Unlock()
			return nil, err
		}
		sh.mu.Lock()
		sh.flushDoneLocked(victim.id)
		sh.mu.Unlock()
	}
	return pg, nil
}

// Fetch pins page id, reading it from disk on a miss. The physical read
// happens outside the shard latch: the loader installs a pinned frame with a
// loading fence, releases the latch, performs the read (plus the dirty
// victim's flush), then closes the fence. Concurrent fetchers of the same
// page wait on the fence rather than the latch, and fetchers of other pages
// in the shard are not blocked behind the I/O at all.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	if id == InvalidPageID {
		return nil, fmt.Errorf("storage: fetch of invalid page")
	}
	sh := bp.shardFor(id)
	sh.mu.Lock()
	for {
		if idx, ok := sh.table[id]; ok {
			pg := sh.frames[idx]
			pg.pinCount++
			pg.refbit = true
			sh.stats.Hits++
			if ch := pg.loading; ch != nil {
				// Another session is reading this page in right now; the pin
				// taken above keeps the frame from being victimized while we
				// wait for its content to become valid.
				sh.mu.Unlock()
				<-ch
				sh.mu.Lock()
				if err := pg.loadErr; err != nil {
					pg.pinCount--
					sh.mu.Unlock()
					return nil, err
				}
				sh.mu.Unlock()
				return pg, nil
			}
			sh.mu.Unlock()
			return pg, nil
		}
		ch, inFlight := sh.flushing[id]
		if !inFlight {
			break
		}
		// The page was just evicted and its dirty write-back is still in
		// flight: a disk read issued now races the write and can observe the
		// stale pre-flush bytes. Wait for the flush fence, then re-check —
		// on flush success the read below sees the flushed bytes; on flush
		// failure the victim is reinstalled and the lookup becomes a hit.
		sh.stats.FenceWaits++
		sh.mu.Unlock()
		<-ch
		sh.mu.Lock()
	}
	sh.stats.Misses++
	idx, victim, err := sh.victimLocked()
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	pg := &Page{id: id, pinCount: 1, refbit: true, loading: make(chan struct{})}
	sh.frames[idx] = pg
	sh.table[id] = idx
	sh.mu.Unlock()

	// Physical I/O outside the latch. The victim (if dirty) was detached
	// with zero pins under the latch and its id fenced in sh.flushing, so
	// this goroutine owns the flush exclusively while concurrent fetchers of
	// the victim's id wait on the fence instead of racing the write-back.
	if victim != nil {
		if werr := sh.disk.WritePage(victim.id, victim.Data[:]); werr != nil {
			// The victim's in-memory copy is the only one holding its
			// updates; reinstall it (still dirty) in the frame we took and
			// fail this fetch instead of silently dropping the writes.
			sh.mu.Lock()
			sh.flushDoneLocked(victim.id)
			delete(sh.table, id)
			victim.refbit = true
			sh.frames[idx] = victim
			sh.table[victim.id] = idx
			pg.loadErr = werr
			ch := pg.loading
			pg.loading = nil
			close(ch)
			sh.mu.Unlock()
			return nil, werr
		}
		sh.mu.Lock()
		sh.flushDoneLocked(victim.id)
		sh.mu.Unlock()
	}
	ioErr := sh.disk.ReadPage(id, pg.Data[:])

	sh.mu.Lock()
	if ioErr != nil {
		// Unmap the never-initialized frame: leaving it would hand later
		// fetches zeroed bytes as a cache hit and leak the pin. Waiters
		// blocked on the fence observe loadErr and drop their own pins.
		pg.loadErr = ioErr
		delete(sh.table, id)
		sh.frames[idx] = nil
	}
	ch := pg.loading
	pg.loading = nil
	close(ch)
	sh.mu.Unlock()
	if ioErr != nil {
		return nil, ioErr
	}
	return pg, nil
}

// flushDoneLocked closes and clears the write-back fence for page id,
// releasing fetchers parked in Fetch's flushing check. Called with the shard
// latch held, whether the flush succeeded or failed.
func (sh *poolShard) flushDoneLocked(id PageID) {
	if ch, ok := sh.flushing[id]; ok {
		delete(sh.flushing, id)
		close(ch)
	}
}

// Unpin releases one pin on page id; dirty marks the content modified.
func (bp *BufferPool) Unpin(pg *Page, dirty bool) {
	sh := bp.shardFor(pg.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if dirty {
		pg.dirty = true
	}
	if pg.pinCount > 0 {
		pg.pinCount--
	}
}

// victimLocked finds a free or evictable frame. A dirty victim is detached
// (unmapped, unpinned, so this caller owns it exclusively) and returned for
// the caller to flush outside the shard latch, with its id registered in
// sh.flushing so fetchers of that page wait for the write-back (the caller
// must close the fence via flushDoneLocked); clean victims are simply
// dropped. Frames mid-load are never selected: their loaders hold a pin.
func (sh *poolShard) victimLocked() (idx int, victim *Page, err error) {
	n := len(sh.frames)
	for i := 0; i < n; i++ {
		if sh.frames[i] == nil {
			return i, nil, nil
		}
	}
	// Clock sweep: up to 2 full rotations (first clears refbits).
	for sweep := 0; sweep < 2*n+1; sweep++ {
		idx := sh.hand
		sh.hand = (sh.hand + 1) % n
		pg := sh.frames[idx]
		if pg.pinCount > 0 {
			continue
		}
		if pg.refbit {
			pg.refbit = false
			continue
		}
		if pg.dirty {
			victim = pg
			sh.stats.Flushes++
			sh.flushing[pg.id] = make(chan struct{})
		}
		delete(sh.table, pg.id)
		sh.frames[idx] = nil
		sh.stats.Evictions++
		return idx, victim, nil
	}
	return 0, nil, fmt.Errorf("storage: buffer pool shard exhausted (%d frames, all pinned)", n)
}

// Discard drops page id from the pool without writing it back. The caller
// asserts nothing references the page anymore — a truncated table's
// abandoned chain — so its content, dirty or not, is dead; flushing it
// would charge eviction I/O for bytes nothing will ever read. Pinned
// frames and frames mid-load are left alone (their holders still expect
// valid content), and absent pages are a no-op: the disk copy may keep
// stale bytes, but page ids are allocated monotonically and an
// unreferenced id is never fetched again.
func (bp *BufferPool) Discard(id PageID) {
	sh := bp.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.table[id]
	if !ok {
		return
	}
	pg := sh.frames[idx]
	if pg.pinCount > 0 || pg.loading != nil {
		return
	}
	delete(sh.table, id)
	sh.frames[idx] = nil
}

// FlushAll writes every dirty page back to disk (pages stay cached). Frames
// mid-load are skipped: their content is not valid yet and cannot be dirty.
func (bp *BufferPool) FlushAll() error {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, pg := range sh.frames {
			if pg != nil && pg.dirty && pg.loading == nil {
				if err := sh.disk.WritePage(pg.id, pg.Data[:]); err != nil {
					sh.mu.Unlock()
					return err
				}
				pg.dirty = false
				sh.stats.Flushes++
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// EvictAll flushes every dirty page and drops all unpinned frames, so the
// next Fetch of any page is a physical read again. Loading a database warms
// the pool as a side effect; cold-read benchmarks call this between the
// load phase and the measured phase so that what they time is the miss
// path, not the residue of the loader. Pinned frames and frames mid-load
// stay resident. Flushes here bypass the disk manager's simulated latency
// accounting only in the sense that they are setup cost, not measured cost;
// callers should snapshot stats after EvictAll, not before.
func (bp *BufferPool) EvictAll() error {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for i, pg := range sh.frames {
			if pg == nil || pg.loading != nil || pg.pinCount > 0 {
				continue
			}
			if pg.dirty {
				if err := sh.disk.WritePage(pg.id, pg.Data[:]); err != nil {
					sh.mu.Unlock()
					return err
				}
				sh.stats.Flushes++
			}
			delete(sh.table, pg.id)
			sh.frames[i] = nil
			sh.stats.Evictions++
		}
		sh.mu.Unlock()
	}
	return nil
}

// PinnedPages reports how many pages currently hold pins (test helper to
// catch pin leaks, which would otherwise exhaust the pool mid-benchmark).
func (bp *BufferPool) PinnedPages() int {
	c := 0
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, pg := range sh.frames {
			if pg != nil && pg.pinCount > 0 {
				c++
			}
		}
		sh.mu.Unlock()
	}
	return c
}
