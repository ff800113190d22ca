package storage

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTwoSpaces: an InTemp owner's pages are numbered, read, written back
// and recycled in the temp space, the others in the database's, through
// one frame budget. FlushAll writes the database's dirty pages alone,
// EvictAll both spaces'. Page n of either space holds its own bytes; a freed
// id goes back only to its own space's NewPages; a temp page's traffic is
// charged to its name like a database page's; and the owner slots a shard
// keeps stay as few as the pages (the temp ids' tag bit is not a slot
// index). It runs on an 8-frame pool, one shard, and a 256-frame one.
func TestTwoSpaces(t *testing.T) {
	for _, capacity := range []int{8, 256} {
		disk, temp := NewMemDiskManager(0), NewMemDiskManager(0)
		bp := NewBufferPoolWithTemp(disk, temp, capacity)
		a, b := bp.Owner("A"), bp.Owner("B").InTemp()
		if a.IsTemp() || !b.IsTemp() {
			t.Fatalf("owners %#x and %#x", a, b)
		}
		take := func(o Owner, fill byte) PageID {
			t.Helper()
			pg, err := bp.NewPageFor(o)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pg.Data {
				pg.Data[i] = fill
			}
			bp.Unpin(pg, true)
			return pg.ID()
		}
		durable, scratch := take(a, 0xD0), take(b, 0x7E)
		if durable != 0 || scratch != TempBit|0 || durable.Temp() || !scratch.Temp() {
			t.Fatalf("ids %#x and %#x, want 0 and TempBit|0", durable, scratch)
		}
		if disk.NumPages() != 1 || temp.NumPages() != 1 {
			t.Fatalf("database %d pages, temp %d", disk.NumPages(), temp.NumPages())
		}
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if disk.Stats().Writes != 1 || temp.Stats().Writes != 0 {
			t.Fatalf("FlushAll wrote %d database and %d temp pages", disk.Stats().Writes, temp.Stats().Writes)
		}
		if err := bp.EvictAll(); err != nil {
			t.Fatal(err)
		}
		if disk.Stats().Writes != 1 || temp.Stats().Writes != 1 {
			t.Fatalf("write-backs: database %d, temp %d", disk.Stats().Writes, temp.Stats().Writes)
		}
		for id, want := range map[PageID]byte{durable: 0xD0, scratch: 0x7E} {
			pg, err := bp.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			if pg.Data[0] != want || pg.Data[PageSize-1] != want {
				t.Fatalf("page %#x reads %#x, want %#x", id, pg.Data[0], want)
			}
			bp.Unpin(pg, false)
		}
		if disk.Stats().Reads != 1 || temp.Stats().Reads != 1 {
			t.Fatalf("reads: database %d, temp %d", disk.Stats().Reads, temp.Stats().Reads)
		}
		if c := bp.OwnerStats()["B"]; c.Fetches != 1 || c.Misses != 1 || c.Flushes != 1 {
			t.Fatalf("B's temp page charged %+v", c)
		}

		bp.Free(scratch)
		if got := take(a, 1); got != 1 {
			t.Fatalf("a database NewPage took %#x, want the fresh page 1", got)
		}
		if got := take(b, 2); got != scratch {
			t.Fatalf("a temp NewPage took %#x, want the freed %#x", got, scratch)
		}
		bp.Free(durable)
		if got := take(b, 3); got != TempBit|1 {
			t.Fatalf("a temp NewPage took %#x, want the fresh TempBit|1", got)
		}
		if free := bp.FreePages(); len(free) != 1 || free[0] != durable {
			t.Fatalf("free lists %v, want the database page %d alone", free, durable)
		}
		if disk.NumPages() != 2 || temp.NumPages() != 2 {
			t.Fatalf("database %d pages, temp %d", disk.NumPages(), temp.NumPages())
		}
		for _, sh := range bp.shards {
			if n := len(sh.owners[0]) + len(sh.owners[1]); n > 4 {
				t.Fatalf("a shard keeps %d owner slots for 4 pages", n)
			}
		}
		if n := bp.PinnedPages(); n != 0 {
			t.Fatalf("%d pages still pinned", n)
		}
	}
}

// TestSpillDiskManager: the spill file is gone from its path as soon as
// the manager exists, and its pages still read back what was written.
func TestSpillDiskManager(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.temp")
	d, err := NewSpillDiskManager(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the spill file is still at its path: %v", err)
	}
	id, err := d.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	out, in := make([]byte, PageSize), make([]byte, PageSize)
	out[7] = 42
	if err := d.WritePage(id, out); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(id, in); err != nil || in[7] != 42 {
		t.Fatalf("read back %d, %v", in[7], err)
	}
}
