package storage

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// IOStats counts physical page transfers performed by a disk manager.
type IOStats struct {
	Reads      uint64
	Writes     uint64
	Allocs     uint64
	ReadDelay  time.Duration // total simulated latency charged to reads
	WriteDelay time.Duration
}

// DiskManager abstracts the page-granular backing store. Two implementations
// exist: FileDiskManager (a real file, used by benchmarks so buffer-pool
// misses hit the OS) and MemDiskManager (byte slices, used by unit tests
// and in-memory databases). A buffer pool holds two, one per page space;
// each numbers its pages from 0.
//
// Both implementations perform the physical transfer (and any simulated
// latency sleep) outside their bookkeeping mutex, so concurrent sessions
// reading disjoint pages overlap their I/O instead of queueing on the
// manager. This is what lets the parallel read path scale: with the transfer
// under the lock, N concurrent cold queries would serialize on the disk
// manager no matter how the layers above are latched.
type DiskManager interface {
	// ReadPage fills data with the content of page id.
	ReadPage(id PageID, data []byte) error
	// WritePage persists data as the content of page id.
	WritePage(id PageID, data []byte) error
	// AllocatePage reserves a fresh page id.
	AllocatePage() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Stats returns cumulative I/O counters.
	Stats() IOStats
	// SetLatency changes the simulated per-transfer latency. Benchmarks
	// use it to load and index at memory speed, then arm the seek cost for
	// the measured phase only.
	SetLatency(lat time.Duration)
	// Close releases the underlying resources.
	Close() error
}

// FileDiskManager stores pages in a single file at PageSize granularity.
// An optional Latency is charged on every physical read and write to
// simulate rotating-disk cost; the container's page cache would otherwise
// hide the buffer-size effects the paper measures (Fig 8(b), 9(g)).
type FileDiskManager struct {
	mu      sync.Mutex
	f       *os.File
	nPages  int
	stats   IOStats
	latency time.Duration
}

// NewFileDiskManager creates (truncating) the backing file at path.
func NewFileDiskManager(path string, latency time.Duration) (*FileDiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return &FileDiskManager{f: f, latency: latency}, nil
}

// ReadPage implements DiskManager. The positional read happens outside the
// mutex: ReadAt is safe for concurrent use and the file only ever grows
// (AllocatePage extends it eagerly), so a page that passed the bounds check
// stays readable.
func (d *FileDiskManager) ReadPage(id PageID, data []byte) error {
	d.mu.Lock()
	if int(id) >= d.nPages {
		d.mu.Unlock()
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, d.nPages)
	}
	d.stats.Reads++
	lat := d.latency
	if lat > 0 {
		d.stats.ReadDelay += lat
	}
	d.mu.Unlock()
	if _, err := d.f.ReadAt(data[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	return nil
}

// WritePage implements DiskManager. Like ReadPage, the positional write and
// the simulated latency happen outside the mutex so concurrent flushes of
// distinct pages overlap.
func (d *FileDiskManager) WritePage(id PageID, data []byte) error {
	d.mu.Lock()
	if int(id) >= d.nPages {
		d.mu.Unlock()
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, d.nPages)
	}
	d.stats.Writes++
	lat := d.latency
	if lat > 0 {
		d.stats.WriteDelay += lat
	}
	d.mu.Unlock()
	if _, err := d.f.WriteAt(data[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	return nil
}

// AllocatePage implements DiskManager. Newly allocated pages are extended
// lazily; the file grows on first write.
func (d *FileDiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.nPages)
	d.nPages++
	d.stats.Allocs++
	// Extend the file eagerly so later ReadAt of an unwritten page succeeds.
	if err := d.f.Truncate(int64(d.nPages) * PageSize); err != nil {
		return InvalidPageID, fmt.Errorf("storage: extend to %d pages: %w", d.nPages, err)
	}
	return id, nil
}

// NumPages implements DiskManager.
func (d *FileDiskManager) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nPages
}

// Stats implements DiskManager.
func (d *FileDiskManager) Stats() IOStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetLatency implements DiskManager. In-flight transfers keep the latency
// they read at admission; the next transfer sees the new value.
func (d *FileDiskManager) SetLatency(lat time.Duration) {
	d.mu.Lock()
	d.latency = lat
	d.mu.Unlock()
}

// Close implements DiskManager.
func (d *FileDiskManager) Close() error { return d.f.Close() }

// MemDiskManager keeps pages in memory. It still counts I/O and honours a
// simulated latency, which lets tests exercise buffer-pool behaviour without
// touching the filesystem.
type MemDiskManager struct {
	mu      sync.Mutex
	pages   [][]byte
	stats   IOStats
	latency time.Duration
}

// NewMemDiskManager returns an empty in-memory disk.
func NewMemDiskManager(latency time.Duration) *MemDiskManager {
	return &MemDiskManager{latency: latency}
}

// ReadPage implements DiskManager. The copy stays under the mutex (page
// slices are shared state) but the simulated latency is charged after
// unlocking, so concurrent simulated reads overlap their sleeps exactly the
// way positional file reads overlap real transfers.
func (d *MemDiskManager) ReadPage(id PageID, data []byte) error {
	d.mu.Lock()
	if int(id) >= len(d.pages) {
		d.mu.Unlock()
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, len(d.pages))
	}
	copy(data[:PageSize], d.pages[id])
	d.stats.Reads++
	lat := d.latency
	if lat > 0 {
		d.stats.ReadDelay += lat
	}
	d.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	return nil
}

// WritePage implements DiskManager.
func (d *MemDiskManager) WritePage(id PageID, data []byte) error {
	d.mu.Lock()
	if int(id) >= len(d.pages) {
		d.mu.Unlock()
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, len(d.pages))
	}
	copy(d.pages[id], data[:PageSize])
	d.stats.Writes++
	lat := d.latency
	if lat > 0 {
		d.stats.WriteDelay += lat
	}
	d.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	return nil
}

// AllocatePage implements DiskManager.
func (d *MemDiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(len(d.pages))
	d.pages = append(d.pages, make([]byte, PageSize))
	d.stats.Allocs++
	return id, nil
}

// NumPages implements DiskManager.
func (d *MemDiskManager) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Stats implements DiskManager.
func (d *MemDiskManager) Stats() IOStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetLatency implements DiskManager.
func (d *MemDiskManager) SetLatency(lat time.Duration) {
	d.mu.Lock()
	d.latency = lat
	d.mu.Unlock()
}

// Close implements DiskManager.
func (d *MemDiskManager) Close() error { return nil }

// NewSpillDiskManager is NewFileDiskManager on a file it unlinks at once:
// its pages live as long as the manager's open file, and nothing is left
// at path when it closes or the process dies.
func NewSpillDiskManager(path string, latency time.Duration) (*FileDiskManager, error) {
	d, err := NewFileDiskManager(path, latency)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(path); err != nil {
		d.Close()
		return nil, fmt.Errorf("storage: unlink %s: %w", path, err)
	}
	return d, nil
}
