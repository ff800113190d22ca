package storage

import (
	"fmt"
	"sync"
)

// PoolStats counts buffer-pool activity. Hits+Misses equals the number of
// Fetch calls; Misses drive physical reads on the disk manager. FenceWaits
// counts fetches that parked on a write-back fence — a victim's dirty flush
// still in flight when its page was wanted back — which is the pool-level
// signal that the working set is thrashing across eviction. Free counts ids
// on the free lists and Recycled those NewPage took from them (pool-wide
// only, both spaces summed);
// Leaked counts ids Free refused (see Free), BadUnpins Unpins that found no
// pin to release (see Unpin).
type PoolStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Flushes    uint64
	FenceWaits uint64
	Free       uint64
	Recycled   uint64
	Leaked     uint64
	BadUnpins  uint64
}

// Owner is the small id a pool charges a page's traffic to: one per
// relation or index name (BufferPool.Owner), 0 for a page no relation
// took. Its top bit (InTemp) places the pages NewPageFor allocates in the
// temp space; the name's traffic is counted in one place whatever the
// space.
type Owner uint32

// tempOwner is Owner's space bit.
const tempOwner Owner = 1 << 31

// InTemp returns o with the pages NewPageFor allocates for it in the temp
// space.
func (o Owner) InTemp() Owner { return o | tempOwner }

// IsTemp reports whether o's pages are allocated in the temp space.
func (o Owner) IsTemp() bool { return o&tempOwner != 0 }

// PageCounts is the page traffic charged to one owner: Fetch calls (hits
// and misses), the misses among them, and write-backs of its dirty pages.
type PageCounts struct {
	Fetches uint64
	Misses  uint64
	Flushes uint64
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
// A pool serves two page spaces with one frame budget and one clock: the
// database's (Disk), whose page n has id n, and the temp space (TempDisk),
// whose page n has id TempBit|n and which holds the pages of the owners
// marked InTemp — scratch relations, which nothing dumps or reopens. Each
// space has its own free list, so an id never crosses between them, and
// every read and write-back goes to the disk manager of its id's space.
//
// The pool is sharded by page id: each shard owns its own latch, frame
// array and clock hand, so concurrent read sessions fetching disjoint pages
// do not contend on a single mutex. Small pools (under 128 frames) keep a
// single shard, preserving the exact pin-capacity semantics the unit tests
// and the paper's tiny buffer-sweep configurations rely on.
type BufferPool struct {
	shards []*poolShard
	// The two spaces, database first; their free lists (see Free) and
	// the ids on either as a set are guarded by freeMu, which nests in a
	// latch.
	freeMu sync.Mutex
	spaces [2]pageSpace
	listed map[PageID]struct{}
	// The owners' names, by id (names[0] is no owner's); latches nest in
	// ownerMu.
	ownerMu sync.Mutex
	names   []string
	ids     map[string]Owner
	// missHook, when set (tests only), sees the id of every miss.
	missHook func(PageID)
}

// pageSpace is one space's disk manager, its free list (ids as the pool
// names them) and the count of ids NewPage took from that list.
type pageSpace struct {
	disk     DiskManager
	free     []PageID
	recycled uint64
}

// poolShard is one latch domain of the pool.
type poolShard struct {
	mu     sync.Mutex
	disks  [2]DiskManager // the pool's spaces' disk managers, database first
	frames []*Page
	table  map[PageID]int // pageID -> frame index
	hand   int            // clock hand
	stats  PoolStats

	// spare holds the page objects evictions gave up, for the next miss or
	// NewPage to take over (takeLocked) instead of allocating one.
	spare []*Page

	// owners holds the owner of each of the shard's page ids, by space,
	// the id's slot its page number's quotient by the shard count (stride);
	// charged holds the traffic of each owner, by its id. A resident page
	// carries its owner (Page.owner), so a hit indexes charged and looks
	// nothing up. Neither holds the space bit of an Owner.
	stride  int
	owners  [2][]Owner
	charged []PageCounts

	// flushing fences dirty victims whose write-back is still in flight:
	// victimLocked registers the victim's id here (under the latch, before
	// the page leaves the table) and the evicting goroutine closes the
	// channel once the WritePage lands. A Fetch of that id must wait on the
	// fence instead of treating the lookup as a miss — reading the page from
	// disk while its flush is in flight could return the stale pre-flush
	// bytes and silently lose the victim's updates.
	flushing map[PageID]chan struct{}
}

// NewBufferPool creates a pool of capacity pages (at least 8) over disk,
// its temp space in memory.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	return NewBufferPoolWithTemp(disk, NewMemDiskManager(0), capacity)
}

// NewBufferPoolWithTemp creates a pool of capacity pages (at least 8) over
// disk, its temp space on temp.
func NewBufferPoolWithTemp(disk, temp DiskManager, capacity int) *BufferPool {
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
	bp := &BufferPool{shards: make([]*poolShard, nshards), listed: make(map[PageID]struct{}),
		names: []string{""}, ids: map[string]Owner{}}
	bp.spaces[0].disk, bp.spaces[1].disk = disk, temp
	base, rem := capacity/nshards, capacity%nshards
	for i := range bp.shards {
		n := base
		if i < rem {
			n++
		}
		bp.shards[i] = &poolShard{
			disks:    [2]DiskManager{disk, temp},
			frames:   make([]*Page, n),
			table:    make(map[PageID]int, n),
			flushing: make(map[PageID]chan struct{}),
			stride:   nshards,
			charged:  make([]PageCounts, 1),
		}
	}
	return bp
}

// Owner returns the id the pool charges name's pages to, registering name
// on its first call: a relation re-created under the same name goes on
// counting where it left off.
func (bp *BufferPool) Owner(name string) Owner {
	bp.ownerMu.Lock()
	defer bp.ownerMu.Unlock()
	if o, ok := bp.ids[name]; ok {
		return o
	}
	o := Owner(len(bp.names))
	bp.names = append(bp.names, name)
	bp.ids[name] = o
	for _, sh := range bp.shards {
		sh.mu.Lock()
		sh.charged = append(sh.charged, PageCounts{})
		sh.mu.Unlock()
	}
	return o
}

// OwnerStats returns each registered owner's traffic summed over the
// shards, by name.
func (bp *BufferPool) OwnerStats() map[string]PageCounts {
	bp.ownerMu.Lock()
	defer bp.ownerMu.Unlock()
	out := make(map[string]PageCounts, len(bp.names)-1)
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for o, c := range sh.charged[1:] {
			sum := out[bp.names[o+1]]
			sum.Fetches += c.Fetches
			sum.Misses += c.Misses
			sum.Flushes += c.Flushes
			out[bp.names[o+1]] = sum
		}
		sh.mu.Unlock()
	}
	return out
}

// SetMissHook makes every miss call f with its page id, outside the latch
// and before the read; nil removes it. It is a test seam that attributes
// misses without the owner counters. Set it while no Fetch runs.
func (bp *BufferPool) SetMissHook(f func(PageID)) { bp.missHook = f }

// ownLocked charges id to o (no space bit) from now on.
func (sh *poolShard) ownLocked(id PageID, o Owner) {
	sp, n := id.space()
	owners := sh.owners[sp]
	slot := int(n) / sh.stride
	if slot >= len(owners) {
		if o == 0 {
			return
		}
		owners = append(owners, make([]Owner, slot+1-len(owners))...)
		sh.owners[sp] = owners
	}
	owners[slot] = o
}

// ownerLocked returns the owner id is charged to.
func (sh *poolShard) ownerLocked(id PageID) Owner {
	sp, n := id.space()
	if slot := int(n) / sh.stride; slot < len(sh.owners[sp]) {
		return sh.owners[sp][slot]
	}
	return 0
}

// write writes pg back to its space's disk manager.
func (sh *poolShard) write(pg *Page) error {
	sp, n := pg.id.space()
	return sh.disks[sp].WritePage(n, pg.Data[:])
}

// shardFor maps a page id to its latch domain, by its number in its space.
func (bp *BufferPool) shardFor(id PageID) *poolShard {
	_, n := id.space()
	return bp.shards[int(n)%len(bp.shards)]
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

// Disk exposes the database's disk manager (for stats).
func (bp *BufferPool) Disk() DiskManager { return bp.spaces[0].disk }

// TempDisk exposes the temp space's disk manager (for stats).
func (bp *BufferPool) TempDisk() DiskManager { return bp.spaces[1].disk }

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
		s.Leaked += sh.stats.Leaked
		s.BadUnpins += sh.stats.BadUnpins
		sh.mu.Unlock()
	}
	bp.freeMu.Lock()
	for _, space := range bp.spaces {
		s.Free += uint64(len(space.free))
		s.Recycled += space.recycled
	}
	bp.freeMu.Unlock()
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

// NewPage returns a zeroed database page, pinned and dirty: the most
// recently freed id, its frame reused in place if still resident, else a
// fresh id the disk manager extends the file by. Stale disk bytes are never
// read, and only the dirty victim's flush (if any) happens outside the
// latch. The id of a NewPage that fails goes on the free list. The page is
// charged to no owner; NewPageFor charges one.
func (bp *BufferPool) NewPage() (*Page, error) { return bp.NewPageFor(0) }

// NewPageFor is NewPage charging the page, a fresh or a recycled id, to
// owner o from now on, in the temp space when o is InTemp.
func (bp *BufferPool) NewPageFor(o Owner) (*Page, error) {
	sp, tag := 0, PageID(0)
	if o.IsTemp() {
		sp, tag, o = 1, TempBit, o&^tempOwner
	}
	space := &bp.spaces[sp]
	bp.freeMu.Lock()
	n := len(space.free)
	id, recycled := InvalidPageID, n > 0
	if recycled {
		id, space.free = space.free[n-1], space.free[:n-1]
		delete(bp.listed, id)
		space.recycled++
	}
	bp.freeMu.Unlock()
	if !recycled {
		fresh, err := space.disk.AllocatePage()
		if err != nil {
			return nil, err
		}
		id = fresh | tag
	}
	sh := bp.shardFor(id)
	sh.mu.Lock()
	sh.ownLocked(id, o)
	if idx, ok := sh.table[id]; ok && recycled {
		pg := sh.frames[idx]
		pg.Data = [PageSize]byte{}
		pg.free, pg.dirty, pg.refbit, pg.pinCount, pg.owner = false, true, true, 1, o
		sh.mu.Unlock()
		return pg, nil
	}
	idx, victim, err := sh.victimLocked()
	if err != nil {
		bp.list(id)
		sh.mu.Unlock()
		return nil, err
	}
	pg := sh.takeLocked(id, o, true)
	pg.dirty = true // fresh page must be written at least once
	sh.frames[idx] = pg
	sh.table[id] = idx
	sh.mu.Unlock()
	if victim != nil {
		if err := sh.write(victim); err != nil {
			// The victim's in-memory copy is the only one holding its
			// updates; undo the allocation's frame grab and keep the victim
			// resident (still dirty) instead of silently dropping it.
			sh.mu.Lock()
			sh.flushDoneLocked(victim.id)
			delete(sh.table, pg.id)
			victim.refbit = true
			sh.frames[idx] = victim
			sh.table[victim.id] = idx
			bp.list(id)
			sh.mu.Unlock()
			return nil, err
		}
		sh.mu.Lock()
		sh.flushDoneLocked(victim.id)
		sh.spare = append(sh.spare, victim)
		sh.mu.Unlock()
	}
	return pg, nil
}

// list puts id on its space's free list unless it is there already.
func (bp *BufferPool) list(id PageID) {
	bp.freeMu.Lock()
	defer bp.freeMu.Unlock()
	if _, dup := bp.listed[id]; !dup {
		bp.listed[id] = struct{}{}
		sp, _ := id.space()
		bp.spaces[sp].free = append(bp.spaces[sp].free, id)
	}
}

// Free returns pages nothing references any more (a truncated table's
// abandoned chain, a dropped table) to their space's free list, last
// first, so that NewPage (LIFO) hands a chain back in allocation order.
// The lists are not persisted: both spaces are recreated on every open. A resident
// frame stays mapped, marked free and clean, for eviction to reclaim first
// without a write. A frame pinned or mid-load has a holder that still
// expects its content, and an id behind a write-back fence has a flush in
// flight that could land on the next owner's bytes: such an id is counted
// in PoolStats.Leaked and never recycled. Freeing a listed id is a no-op.
func (bp *BufferPool) Free(ids ...PageID) {
	for i := len(ids) - 1; i >= 0; i-- {
		sh := bp.shardFor(ids[i])
		sh.mu.Lock()
		idx, resident := sh.table[ids[i]]
		_, fenced := sh.flushing[ids[i]]
		switch pg := sh.frames[idx]; {
		case resident && pg.free:
		case fenced, resident && (pg.pinCount > 0 || pg.loading != nil):
			sh.stats.Leaked++
		default:
			if resident {
				pg.free, pg.dirty, pg.refbit = true, false, false
			}
			bp.list(ids[i])
		}
		sh.mu.Unlock()
	}
}

// FreePages lists the ids on the free lists, the database's then the temp
// space's, each most recently freed last.
func (bp *BufferPool) FreePages() []PageID {
	bp.freeMu.Lock()
	defer bp.freeMu.Unlock()
	return append(append([]PageID(nil), bp.spaces[0].free...), bp.spaces[1].free...)
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
			if pg.free {
				sh.mu.Unlock()
				return nil, fmt.Errorf("storage: fetch of freed page %d", id)
			}
			pg.pinCount++
			pg.refbit = true
			sh.stats.Hits++
			sh.charged[pg.owner].Fetches++
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
	o := sh.ownerLocked(id)
	sh.charged[o].Fetches++
	sh.charged[o].Misses++
	idx, victim, err := sh.victimLocked()
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	pg := sh.takeLocked(id, o, false) // ReadPage overwrites all of Data
	pg.loading = make(chan struct{})
	sh.frames[idx] = pg
	sh.table[id] = idx
	sh.mu.Unlock()
	if h := bp.missHook; h != nil {
		h(id)
	}

	// Physical I/O outside the latch. The victim (if dirty) was detached
	// with zero pins under the latch and its id fenced in sh.flushing, so
	// this goroutine owns the flush exclusively while concurrent fetchers of
	// the victim's id wait on the fence instead of racing the write-back.
	if victim != nil {
		if werr := sh.write(victim); werr != nil {
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
		sh.spare = append(sh.spare, victim)
		sh.mu.Unlock()
	}
	sp, n := id.space()
	ioErr := sh.disks[sp].ReadPage(n, pg.Data[:])

	sh.mu.Lock()
	if ioErr != nil {
		// Unmap the never-initialized frame: leaving it would hand later
		// fetches stale bytes as a cache hit and leak the pin. Waiters
		// blocked on the fence observe loadErr and drop their own pins: the
		// object stays theirs and never goes on the spare list.
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

// Unpin releases one pin on page id; dirty marks the content modified. pg
// is not the caller's after this (see Page). An Unpin that finds no pin
// is counted in PoolStats.BadUnpins and ignored: it must stay 0, for once
// pg holds another page such an Unpin drops its new holder's pin instead.
func (bp *BufferPool) Unpin(pg *Page, dirty bool) {
	sh := bp.shardFor(pg.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pg.pinCount == 0 {
		sh.stats.BadUnpins++
		return
	}
	if dirty {
		pg.dirty = true
	}
	pg.pinCount--
}

// takeLocked returns a page object for a frame about to hold id, owned by
// o, pinned and referenced: the last one on the spare list, its Data zeroed
// or still the previous page's, or a new one. Objects never change shard.
func (sh *poolShard) takeLocked(id PageID, o Owner, zero bool) *Page {
	n := len(sh.spare)
	if n == 0 {
		return &Page{id: id, owner: o, pinCount: 1, refbit: true}
	}
	pg := sh.spare[n-1]
	sh.spare = sh.spare[:n-1]
	if zero {
		pg.Data = [PageSize]byte{}
	}
	pg.id, pg.owner, pg.pinCount, pg.refbit, pg.dirty, pg.free = id, o, 1, true, false, false
	return pg
}

// victimLocked finds an empty or evictable frame; a freed page's frame
// counts as empty (its id stays on the free list). A dirty victim is
// detached (unmapped, unpinned, so this caller owns it exclusively) and
// returned for the caller to flush outside the shard latch, with its id
// registered in sh.flushing so fetchers of that page wait for the
// write-back (the caller must close the fence via flushDoneLocked, and put
// the victim on the spare list if the write landed); a clean victim or a
// freed frame goes on the spare list at once. Frames mid-load are never
// selected: their loaders hold a pin.
func (sh *poolShard) victimLocked() (idx int, victim *Page, err error) {
	n := len(sh.frames)
	for i, pg := range sh.frames {
		if pg != nil && pg.free {
			delete(sh.table, pg.id)
			sh.spare = append(sh.spare, pg)
			sh.frames[i], pg = nil, nil
		}
		if pg == nil {
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
			sh.charged[pg.owner].Flushes++
			sh.flushing[pg.id] = make(chan struct{})
		} else {
			sh.spare = append(sh.spare, pg)
		}
		delete(sh.table, pg.id)
		sh.frames[idx] = nil
		sh.stats.Evictions++
		return idx, victim, nil
	}
	return 0, nil, fmt.Errorf("storage: buffer pool shard exhausted (%d frames, all pinned)", n)
}

// FlushAll writes every dirty database page back to disk (pages stay
// cached). Temp pages stay dirty: the temp space lives no longer than the
// pool, so only an eviction that needs the frame writes one. Frames
// mid-load are skipped: their content is not valid yet and cannot be dirty.
func (bp *BufferPool) FlushAll() error {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, pg := range sh.frames {
			if pg != nil && pg.dirty && pg.loading == nil && !pg.id.Temp() {
				if err := sh.write(pg); err != nil {
					sh.mu.Unlock()
					return err
				}
				pg.dirty = false
				sh.stats.Flushes++
				sh.charged[pg.owner].Flushes++
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// EvictAll flushes every dirty page and drops all unpinned frames (onto the
// spare list), so the next Fetch of any page is a physical read again.
// Loading a database warms the pool as a side effect; cold-read benchmarks
// call this between the load phase and the measured phase so that what
// they time is the miss path, not the residue of the loader. Pinned frames
// and frames mid-load stay resident. Flushes here bypass the disk manager's
// simulated latency accounting only in the sense that they are setup cost,
// not measured cost; callers should snapshot stats after EvictAll, not
// before.
func (bp *BufferPool) EvictAll() error {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for i, pg := range sh.frames {
			if pg == nil || pg.loading != nil || pg.pinCount > 0 {
				continue
			}
			if pg.dirty {
				if err := sh.write(pg); err != nil {
					sh.mu.Unlock()
					return err
				}
				sh.stats.Flushes++
				sh.charged[pg.owner].Flushes++
			}
			delete(sh.table, pg.id)
			sh.spare = append(sh.spare, pg)
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
