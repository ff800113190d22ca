// Package storage implements the lowest layer of the embedded relational
// engine: fixed-size pages, a disk manager that persists them to a single
// file (or to memory for tests), and a buffer pool with clock eviction
// over two page spaces: the database's disk manager, and a temp one that
// holds the pages of scratch relations.
//
// The paper's experiments depend on a genuine disk/buffer split — buffer
// size sweeps (Fig 8(b), 9(g)) and clustered-index locality (Fig 8(c)) only
// make sense when tables live on pages that must be fetched through a
// bounded cache — so this layer is a real page store, not a map.
//
// Concurrency: the buffer pool is sharded by page id, one latch per shard,
// and physical I/O (disk reads, victim flushes, simulated latency) happens
// outside the latch behind a per-frame loading fence, so concurrent read
// sessions fetching disjoint pages overlap their misses as well as their
// hits. Page contents carry no latch of their own — the layers above
// guarantee that writers to a table are exclusive (the rdb facade's
// per-table RW locks) while any number of readers share pinned pages.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of every on-disk page in bytes. 8 KiB matches common
// DBMS defaults (SQL Server, PostgreSQL) and gives edge tables realistic
// tuples-per-page density.
const PageSize = 8192

// PageID identifies a page within a disk manager's file. InvalidPageID marks
// "no page" (e.g. end of a B+tree leaf chain).
type PageID uint32

// InvalidPageID is the sentinel for "no page".
const InvalidPageID PageID = 0xFFFFFFFF

// TempBit tags the ids of a pool's temp space (see BufferPool): its page n
// there is TempBit|n, page n of the database file is n. InvalidPageID
// carries the bit too, but no temp space reaches 2^31-1 pages.
const TempBit PageID = 1 << 31

// Temp reports whether id is a page of the temp space.
func (id PageID) Temp() bool { return id&TempBit != 0 }

// space returns the index of id's space (0 the database, 1 the temp space)
// and the page's number in it.
func (id PageID) space() (int, PageID) {
	if id&TempBit != 0 {
		return 1, id &^ TempBit
	}
	return 0, id
}

// Page is an in-buffer copy of one disk page plus bookkeeping used by the
// buffer pool. Callers must hold a pin (via BufferPool.Fetch/NewPage) while
// reading or writing Data, and must not touch a *Page after its Unpin: an
// evicted object is recycled to hold another page, so whatever outlives
// the pin (an id, a value, the iterators' whole page) is copied out first.
type Page struct {
	id       PageID
	owner    Owner // what the pool charges the page's traffic to
	Data     [PageSize]byte
	dirty    bool
	pinCount int
	refbit   bool // clock reference bit
	free     bool // on the pool's free list: dead content, first to be reclaimed

	// loading fences a frame whose content is still being read from disk:
	// the loader installs the frame (pinned) under the shard latch, performs
	// the physical read outside it, then closes the channel. Fetchers that
	// find a non-nil loading channel wait on it instead of the latch, then
	// consult loadErr. Both fields are written under the shard latch; the
	// channel close publishes Data to waiters.
	loading chan struct{}
	loadErr error
}

// ID returns the page's identifier.
func (p *Page) ID() PageID { return p.id }

// Dirty reports whether the page has unsaved changes.
func (p *Page) Dirty() bool { return p.dirty }

// PinCount returns the number of outstanding pins (for tests/diagnostics).
func (p *Page) PinCount() int { return p.pinCount }

// PutU32 writes v at byte offset off in the page.
func (p *Page) PutU32(off int, v uint32) {
	binary.LittleEndian.PutUint32(p.Data[off:], v)
}

// U32 reads a uint32 at byte offset off.
func (p *Page) U32(off int) uint32 {
	return binary.LittleEndian.Uint32(p.Data[off:])
}

// PutU16 writes v at byte offset off.
func (p *Page) PutU16(off int, v uint16) {
	binary.LittleEndian.PutUint16(p.Data[off:], v)
}

// U16 reads a uint16 at byte offset off.
func (p *Page) U16(off int) uint16 {
	return binary.LittleEndian.Uint16(p.Data[off:])
}

// PutU64 writes v at byte offset off.
func (p *Page) PutU64(off int, v uint64) {
	binary.LittleEndian.PutUint64(p.Data[off:], v)
}

// U64 reads a uint64 at byte offset off.
func (p *Page) U64(off int) uint64 {
	return binary.LittleEndian.Uint64(p.Data[off:])
}

func (p *Page) String() string {
	return fmt.Sprintf("Page(%d dirty=%v pins=%d)", p.id, p.dirty, p.pinCount)
}
