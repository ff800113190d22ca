package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// newPool is NewBufferPool that fails the test if, by its end, an Unpin
// found its page holding no pin.
func newPool(t testing.TB, disk DiskManager, capacity int) *BufferPool {
	bp := NewBufferPool(disk, capacity)
	t.Cleanup(func() {
		if n := bp.Stats().BadUnpins; n != 0 {
			t.Errorf("%d unbalanced Unpin calls", n)
		}
	})
	return bp
}

// TestUnbalancedUnpinCounted: a second Unpin of one pin is counted and
// changes nothing, so it can neither drop another holder's pin nor mark the
// page dirty.
func TestUnbalancedUnpinCounted(t *testing.T) {
	bp := NewBufferPool(NewMemDiskManager(0), 8)
	id := newDirtyPage(t, bp, 1)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pg, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(pg, false)
	bp.Unpin(pg, true)
	if st := bp.Stats(); st.BadUnpins != 1 {
		t.Fatalf("a second Unpin: %+v", st)
	}
	if pg.PinCount() != 0 || pg.Dirty() {
		t.Fatalf("a second Unpin changed the page: pins %d, dirty %v", pg.PinCount(), pg.Dirty())
	}
}

// pattern is what page id holds at version v: every byte depends on both,
// so a page read back from another page's frame or an older flush differs.
func pattern(id PageID, v int) (p [PageSize]byte) {
	for i := range p {
		p[i] = byte(int(id)*31 + v*7 + i)
	}
	return p
}

var errInjectedRead = errors.New("injected read failure")

// faultDisk fails every WritePage while failWrite is set, and parks a
// ReadPage of slowID on gate (announcing it on entered), failing it if
// failRead is set.
type faultDisk struct {
	DiskManager
	failWrite, failRead bool
	slowID              PageID
	gate, entered       chan struct{}
}

func (d *faultDisk) WritePage(id PageID, data []byte) error {
	if d.failWrite {
		return errInjectedWrite
	}
	return d.DiskManager.WritePage(id, data)
}

func (d *faultDisk) ReadPage(id PageID, data []byte) error {
	if id == d.slowID {
		d.entered <- struct{}{}
		<-d.gate
		if d.failRead {
			return errInjectedRead
		}
	}
	return d.DiskManager.ReadPage(id, data)
}

// recycleFixture is an 8-frame pool over twelve pages: ids[0:8] resident and
// clean, ids[8:] on disk only, the spare list empty, so every frame object
// the pool owns is in frames.
type recycleFixture struct {
	t       *testing.T
	disk    *faultDisk
	bp      *BufferPool
	ids     []PageID
	version map[PageID]int // the last version written of each live page
}

func newRecycleFixture(t *testing.T) *recycleFixture {
	f := &recycleFixture{t: t, disk: &faultDisk{DiskManager: NewMemDiskManager(0), slowID: InvalidPageID},
		version: map[PageID]int{}}
	f.bp = newPool(t, f.disk, 8)
	for i := 0; i < 12; i++ {
		pg, err := f.bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		id := pg.ID()
		pg.Data = pattern(id, 0)
		f.bp.Unpin(pg, true)
		f.ids, f.version[id] = append(f.ids, id), 0
	}
	if err := f.bp.EvictAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range f.ids[:8] {
		f.fetch(id, false)
	}
	f.shard().spare = nil
	return f
}

func (f *recycleFixture) shard() *poolShard { return f.bp.shards[0] }

// fetch pins id, checks it holds its last version, bumps that version when
// write is set, and unpins; it returns the object Fetch handed out.
func (f *recycleFixture) fetch(id PageID, write bool) *Page {
	f.t.Helper()
	pg, err := f.bp.Fetch(id)
	if err != nil {
		f.t.Fatalf("fetch %d: %v", id, err)
	}
	if pg.Data != pattern(id, f.version[id]) {
		f.t.Fatalf("page %d does not hold version %d", id, f.version[id])
	}
	if write {
		f.version[id]++
		pg.Data = pattern(id, f.version[id])
	}
	f.bp.Unpin(pg, write)
	return pg
}

// dirtyAll rewrites every resident page, so the next eviction has to flush.
func (f *recycleFixture) dirtyAll() {
	for _, id := range f.ids[:8] {
		f.fetch(id, true)
	}
}

// frames maps each frame object the shard holds to the page in it.
func (f *recycleFixture) frames() map[*Page]PageID {
	sh := f.shard()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := map[*Page]PageID{}
	for _, pg := range sh.frames {
		if pg != nil {
			m[pg] = pg.id
		}
	}
	return m
}

// resident reports whether id is mapped to the object pg.
func (f *recycleFixture) resident(id PageID, pg *Page) bool {
	sh := f.shard()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.table[id]
	return ok && sh.frames[idx] == pg
}

func (f *recycleFixture) spare() []*Page {
	sh := f.shard()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]*Page(nil), sh.spare...)
}

// checkAll re-fetches every live page twice over, through evictions, and
// fails unless each holds exactly the bytes last written to it.
func (f *recycleFixture) checkAll() {
	f.t.Helper()
	for r := 0; r < 2; r++ {
		for _, id := range f.ids {
			if _, live := f.version[id]; live {
				f.fetch(id, false)
			}
		}
	}
	if n := f.bp.PinnedPages(); n != 0 {
		f.t.Fatalf("pin leak: %d", n)
	}
}

// TestFrameRecycling drives each way a frame object leaves its page and
// checks where the object goes: a clean victim, a flushed dirty victim and
// a reclaimed free frame are taken over by the next miss; a victim whose
// flush failed is reinstalled with its bytes, and an object whose load
// failed stays with its waiters. Every page then reads back what was last
// written to it.
func TestFrameRecycling(t *testing.T) {
	t.Run("clean victim", func(t *testing.T) {
		f := newRecycleFixture(t)
		before := f.frames()
		pg := f.fetch(f.ids[8], false)
		old, reused := before[pg]
		if !reused || f.resident(old, pg) || len(f.spare()) != 0 {
			t.Fatalf("the miss did not take over the clean victim's object (reused %v, spare %d)", reused, len(f.spare()))
		}
		f.checkAll()
	})

	t.Run("dirty victim", func(t *testing.T) {
		f := newRecycleFixture(t)
		f.dirtyAll()
		before := f.frames()
		if _, reused := before[f.fetch(f.ids[8], false)]; reused {
			t.Fatal("a miss took over a victim whose write-back was still in flight")
		}
		spare := f.spare()
		if len(spare) != 1 {
			t.Fatalf("after the write-back: %d spare objects, want the victim", len(spare))
		}
		victim := spare[0]
		if _, ok := before[victim]; !ok || f.resident(before[victim], victim) {
			t.Fatal("the spare object is not the evicted victim")
		}
		if pg := f.fetch(f.ids[9], false); pg != victim {
			t.Fatal("the next miss did not take over the flushed victim")
		}
		f.checkAll()
	})

	for _, via := range []string{"Fetch", "NewPage"} {
		t.Run("write failure/"+via, func(t *testing.T) {
			f := newRecycleFixture(t)
			f.dirtyAll()
			before := f.frames()
			f.disk.failWrite = true
			var err error
			if via == "Fetch" {
				_, err = f.bp.Fetch(f.ids[8])
			} else {
				_, err = f.bp.NewPage()
			}
			f.disk.failWrite = false
			if !errors.Is(err, errInjectedWrite) {
				t.Fatalf("miss over a failing flush: %v", err)
			}
			if len(f.spare()) != 0 {
				t.Fatal("a victim whose flush failed went on the spare list")
			}
			for pg, id := range before {
				if !f.resident(id, pg) {
					t.Fatalf("page %d lost its frame object after the failed flush", id)
				}
			}
			f.checkAll()
		})
	}

	t.Run("read failure", func(t *testing.T) {
		f := newRecycleFixture(t)
		id := f.ids[8]
		f.disk.slowID, f.disk.failRead = id, true
		f.disk.gate, f.disk.entered = make(chan struct{}), make(chan struct{}, 1)
		errs := make(chan error, 2)
		fetch := func() {
			pg, err := f.bp.Fetch(id)
			if err == nil {
				f.bp.Unpin(pg, false)
			}
			errs <- err
		}
		go fetch()
		<-f.disk.entered
		sh := f.shard()
		sh.mu.Lock()
		loading := sh.frames[sh.table[id]]
		sh.mu.Unlock()
		go fetch()
		for pinned := 1; pinned < 2; time.Sleep(time.Millisecond) {
			sh.mu.Lock()
			pinned = loading.pinCount
			sh.mu.Unlock()
		}
		close(f.disk.gate)
		for i := 0; i < 2; i++ {
			if err := <-errs; !errors.Is(err, errInjectedRead) {
				t.Fatalf("fetch %d over a failing read: %v", i, err)
			}
		}
		f.disk.slowID = InvalidPageID
		if _, mapped := f.frames()[loading]; mapped {
			t.Fatal("the failed load's object is still a frame")
		}
		for _, pg := range f.spare() {
			if pg == loading {
				t.Fatal("the failed load's object went on the spare list")
			}
		}
		for r := 0; r < 4; r++ {
			for _, id := range f.ids {
				if f.fetch(id, r%2 == 1) == loading {
					t.Fatalf("page %d was handed the failed load's object", id)
				}
			}
		}
		f.checkAll()
	})

	t.Run("freed frame", func(t *testing.T) {
		f := newRecycleFixture(t)
		freed := f.ids[3]
		obj := f.fetch(freed, false)
		f.bp.Free(freed)
		delete(f.version, freed)
		if pg := f.fetch(f.ids[8], false); pg != obj {
			t.Fatal("the miss did not take over the freed frame's object")
		}
		if len(f.frames()) != 8 {
			t.Fatal("reclaiming the freed frame evicted a live page too")
		}
		pg, err := f.bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		wantZeroed(t, pg, freed)
		pg.Data = pattern(freed, 0)
		f.bp.Unpin(pg, true)
		f.version[freed] = 0
		f.checkAll()
	})
}

// TestRecycleChurnRace: workers rewrite and re-read their own pages over an
// 8-frame pool with slow writes, so one worker's miss often evicts another's
// page and that owner fetches it again while the write-back is in flight:
// the fetch waits on the fence, then misses into whatever object the pool
// hands it, possibly the victim itself. Every fetch must see its page's
// last version. Run it under -race.
func TestRecycleChurnRace(t *testing.T) {
	bp := newPool(t, &slowWriteDisk{NewMemDiskManager(0)}, 8)
	const workers, owned, steps = 4, 6, 600
	ids := make([][]PageID, workers)
	for w := range ids {
		for i := 0; i < owned; i++ {
			pg, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			id := pg.ID()
			pg.Data = pattern(id, 0)
			bp.Unpin(pg, true)
			ids[w] = append(ids[w], id)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			version := make([]int, owned)
			for n := 0; n < steps; n++ {
				i := rng.Intn(owned)
				id := ids[w][i]
				pg, err := bp.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				ok := pg.Data == pattern(id, version[i])
				write := rng.Intn(2) == 0
				if write {
					version[i]++
					pg.Data = pattern(id, version[i])
				}
				bp.Unpin(pg, write)
				if !ok {
					errs <- fmt.Errorf("worker %d: page %d does not hold version %d", w, id, version[i])
					return
				}
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := bp.Stats()
	if st.FenceWaits == 0 || st.Flushes == 0 {
		t.Fatalf("no fetch waited on a write-back: %+v", st)
	}
	t.Logf("%+v", st)
}

// slowWriteDisk yields the processor in the middle of every write, so
// write-backs stay in flight while other goroutines run.
type slowWriteDisk struct{ DiskManager }

func (d *slowWriteDisk) WritePage(id PageID, data []byte) error {
	time.Sleep(50 * time.Microsecond)
	return d.DiskManager.WritePage(id, data)
}

// TestMissAllocatesNoPage: on a 16-frame pool cycling 64 pages every fetch
// misses, half of the rounds over dirty victims, and a miss allocates
// fewer than 1 KiB: the fence channels, not a fresh 8 KiB page.
func TestMissAllocatesNoPage(t *testing.T) {
	bp := newPool(t, NewMemDiskManager(0), 16)
	var ids []PageID
	for i := 0; i < 64; i++ {
		ids = append(ids, newDirtyPage(t, bp, byte(i)))
	}
	cycle := func(dirty bool) {
		for _, id := range ids {
			pg, err := bp.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			if dirty {
				pg.Data[0]++
			}
			bp.Unpin(pg, dirty)
		}
	}
	cycle(true) // grow the maps and the spare list to their steady size
	misses := bp.Stats().Misses
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const rounds = 8
	for r := 0; r < rounds; r++ {
		cycle(r%2 == 0)
	}
	runtime.ReadMemStats(&m1)
	if misses = bp.Stats().Misses - misses; misses != rounds*64 {
		t.Fatalf("%d misses in %d fetches: the cycle no longer misses every time", misses, rounds*64)
	}
	perMiss := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(misses)
	if perMiss >= 1024 {
		t.Fatalf("%.0f bytes allocated per miss, want < 1024", perMiss)
	}
	t.Logf("%.0f bytes allocated per miss", perMiss)
}

// TestOwnerCounters: fetches, misses and flushes are charged to the owner
// that took the page, per name across calls to Owner, and a recycled id is
// charged to whichever owner takes it next; NewPage's pages are charged to
// no one. It runs on an 8-frame pool, one shard, and on a 256-frame one,
// four shards.
func TestOwnerCounters(t *testing.T) {
	for _, capacity := range []int{8, 256} {
		bp := newPool(t, NewMemDiskManager(0), capacity)
		a, b := bp.Owner("A"), bp.Owner("B")
		if a == b || bp.Owner("A") != a {
			t.Fatalf("owners %d and %d, A again %d", a, b, bp.Owner("A"))
		}
		take := func(o Owner) PageID {
			pg, err := bp.NewPageFor(o)
			if err != nil {
				t.Fatal(err)
			}
			bp.Unpin(pg, true)
			return pg.ID()
		}
		fetch := func(id PageID) {
			pg, err := bp.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			bp.Unpin(pg, false)
		}
		ida, idb := take(a), take(b)
		pg, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(pg, true)
		fetch(ida) // a hit
		if err := bp.EvictAll(); err != nil {
			t.Fatal(err)
		}
		fetch(ida) // a miss
		fetch(idb)
		bp.Free(ida)
		if id := take(b); id != ida {
			t.Fatalf("NewPageFor took %d, want the freed %d", id, ida)
		}
		if err := bp.EvictAll(); err != nil {
			t.Fatal(err)
		}
		fetch(ida)
		got := bp.OwnerStats()
		want := map[string]PageCounts{
			"A": {Fetches: 2, Misses: 1, Flushes: 1},
			"B": {Fetches: 2, Misses: 2, Flushes: 2},
		}
		if len(got) != len(want) || got["A"] != want["A"] || got["B"] != want["B"] {
			t.Errorf("%d frames: %+v, want %+v", capacity, got, want)
		}
		if st := bp.Stats(); st.Hits+st.Misses != 4 || st.Flushes != 4 {
			t.Errorf("%d frames: pool %+v: the unowned page's flush is the fourth", capacity, st)
		}
	}
}

// TestOwnersUnderConcurrentFetches: owners registered and stats read while
// other goroutines fetch, miss and recycle owned pages; run under -race. The
// fetches charged add up to the pool's.
func TestOwnersUnderConcurrentFetches(t *testing.T) {
	bp := newPool(t, NewMemDiskManager(0), 128)
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		o := bp.Owner(fmt.Sprintf("W%d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ids []PageID
			for i := 0; i < rounds; i++ {
				pg, err := bp.NewPageFor(o)
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, pg.ID())
				bp.Unpin(pg, true)
				for _, id := range ids[max(0, len(ids)-8):] {
					pg, err := bp.Fetch(id)
					if err != nil {
						t.Error(err)
						return
					}
					bp.Unpin(pg, i%3 == 0)
				}
				if i%16 == 15 {
					bp.Free(ids...)
					ids = ids[:0]
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		bp.Owner(fmt.Sprintf("R%d", i))
		bp.OwnerStats()
	}
	wg.Wait()
	var fetches uint64
	for _, c := range bp.OwnerStats() {
		fetches += c.Fetches
	}
	if st := bp.Stats(); fetches != st.Hits+st.Misses {
		t.Errorf("owners were charged %d fetches, the pool counted %d", fetches, st.Hits+st.Misses)
	}
}
