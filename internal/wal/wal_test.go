package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testRecords() []Record {
	return []Record{
		{Version: 1, Muts: []Mutation{{Op: OpInsert, From: 1, To: 2, Weight: 5}}},
		{Version: 2, Muts: []Mutation{
			{Op: OpDelete, From: 1, To: 2},
			{Op: OpUpdate, From: 3, To: 4, Weight: 9},
		}},
		{Version: 7, Muts: nil}, // empty batch is legal framing
	}
}

func writeLog(t *testing.T, path string, recs []Record) {
	t.Helper()
	l, prev, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(prev) != 0 {
		t.Fatalf("fresh log recovered %d records", len(prev))
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Version != b[i].Version || len(a[i].Muts) != len(b[i].Muts) {
			return false
		}
		for j := range a[i].Muts {
			if a[i].Muts[j] != b[i].Muts[j] {
				return false
			}
		}
	}
	return true
}

// TestRoundtrip: append, close, reopen — every record comes back intact and
// the log is append-ready at the old tail.
func TestRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	recs := testRecords()
	writeLog(t, path, recs)

	l, got, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if !recordsEqual(got, recs) {
		t.Fatalf("recovered %+v, want %+v", got, recs)
	}
	st := l.Stats()
	if st.RecoveredRecords != len(recs) || st.TruncatedBytes != 0 {
		t.Fatalf("stats %+v: want %d recovered, 0 truncated", st, len(recs))
	}
	// The reopened log keeps accepting appends after the recovered tail.
	extra := Record{Version: 9, Muts: []Mutation{{Op: OpInsert, From: 5, To: 6, Weight: 1}}}
	if err := l.Append(extra); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, append(recs, extra)) {
		t.Fatalf("after post-recovery append: got %d records", len(got))
	}
}

// TestTornTail: a crash mid-append leaves a truncated frame; recovery keeps
// every intact record, cuts the tail, and the file ends at a frame boundary.
func TestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	recs := testRecords()
	writeLog(t, path, recs)
	intactSize, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append: a partial frame (header promising more bytes
	// than exist) at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 1, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, got, err := Open(path)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l.Close()
	if !recordsEqual(got, recs) {
		t.Fatalf("torn tail lost records: got %d, want %d", len(got), len(recs))
	}
	st := l.Stats()
	if st.TruncatedBytes != 6 {
		t.Fatalf("TruncatedBytes %d, want 6", st.TruncatedBytes)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != intactSize.Size() {
		t.Fatalf("tail not truncated: %d bytes, want %d", fi.Size(), intactSize.Size())
	}
}

// TestBitFlip: a flipped payload byte fails the CRC; the scan stops at the
// corrupted record and keeps the prefix, even though the frame lengths
// still line up.
func TestBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	recs := testRecords()
	writeLog(t, path, recs)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the second record's payload. Record 1 occupies
	// frameHeader+12+25 bytes; aim well inside record 2.
	pos := frameHeader + 12 + 25 + frameHeader + 4
	data[pos] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, got, err := Open(path)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l.Close()
	if !recordsEqual(got, recs[:1]) {
		t.Fatalf("bit flip: recovered %d records, want 1 (the intact prefix)", len(got))
	}
	if st := l.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("bit flip: no bytes reported truncated")
	}
	// The log stays usable: new appends land after the surviving prefix.
	if err := l.Append(Record{Version: 3}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Version != 3 {
		t.Fatalf("append after corruption: got %+v", got)
	}
}

// TestReset: after a reset the log is empty and keeps accepting appends.
func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range testRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size after reset: %d", l.Size())
	}
	post := Record{Version: 11, Muts: []Mutation{{Op: OpUpdate, From: 0, To: 1, Weight: 2}}}
	if err := l.Append(post); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, []Record{post}) {
		t.Fatalf("after reset: recovered %+v", got)
	}
}

// TestGroupCommit: concurrent appenders all return durably synced, and the
// fsync count is allowed to be (usually is) below the append count —
// coalescing, not one flush per record.
func TestGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Append(Record{Version: uint64(i + 1),
				Muts: []Mutation{{Op: OpInsert, From: int64(i), To: int64(i + 1), Weight: 1}}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("appends %d, want %d", st.Appends, n)
	}
	if st.Syncs == 0 || st.Syncs > n {
		t.Fatalf("syncs %d out of range (0, %d]", st.Syncs, n)
	}
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
}

// TestClosedLog: operations on a closed log fail cleanly.
func TestClosedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(Record{Version: 1}); err == nil {
		t.Fatal("append on closed log succeeded")
	}
	if err := l.Reset(); err == nil {
		t.Fatal("reset on closed log succeeded")
	}
}

// TestEncodeDecode: the frame encoder and payload decoder are inverses and
// reject structurally bad payloads.
func TestEncodeDecode(t *testing.T) {
	rec := Record{Version: 42, Muts: []Mutation{
		{Op: OpInsert, From: -1, To: 1 << 40, Weight: 7}, // negative survives the u64 trip
	}}
	frame := encodeFrame(rec)
	got, ok := decodePayload(frame[frameHeader:])
	if !ok || !recordsEqual([]Record{got}, []Record{rec}) {
		t.Fatalf("roundtrip: %+v ok=%v", got, ok)
	}
	if _, ok := decodePayload(bytes.Repeat([]byte{1}, 11)); ok {
		t.Fatal("short payload accepted")
	}
	if _, ok := decodePayload(bytes.Repeat([]byte{0xff}, 12+25)); ok {
		t.Fatal("payload with bad op/count accepted")
	}
	// A delete is logged with weight 0 whatever its Weight held, and one
	// read back with another weight did not come from the encoder.
	del := encodeFrame(Record{Muts: []Mutation{{Op: OpDelete, From: 1, To: 2, Weight: 7}}})[frameHeader:]
	if got, ok := decodePayload(del); !ok || got.Muts[0].Weight != 0 {
		t.Fatalf("delete logged as %+v ok=%v, want weight 0", got, ok)
	}
	binary.LittleEndian.PutUint64(del[12+17:], 7)
	if _, ok := decodePayload(del); ok {
		t.Fatal("a delete with weight 7 was decoded")
	}
}

// FuzzWALScan runs Scan's frame loop on arbitrary bytes: it never panics,
// and the records it returns re-encode to exactly the intact prefix — so
// the intact offset is a frame boundary no larger than the input.
func FuzzWALScan(f *testing.F) {
	var log []byte
	for _, r := range testRecords() {
		log = append(log, encodeFrame(r)...)
	}
	f.Add(log)
	f.Add(log[:len(log)-5]) // torn tail
	flipped := bytes.Clone(log)
	flipped[4] ^= 0x40 // the first frame's CRC
	f.Add(flipped)
	oversized := binary.LittleEndian.AppendUint32(nil, maxRecord+1)
	f.Add(append(oversized, make([]byte, 16)...))
	// A count of 2^32-1 on a 12-byte payload whose CRC is right, so only
	// the decoder's length check stands between it and a huge make.
	short := binary.LittleEndian.AppendUint64(nil, 3)
	short = binary.LittleEndian.AppendUint32(short, math.MaxUint32)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(short)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(short))
	f.Add(append(frame, short...))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, intact := scanFrames(data)
		if intact < 0 || intact > len(data) {
			t.Fatalf("intact offset %d outside the %d-byte input", intact, len(data))
		}
		var again []byte
		for _, r := range recs {
			again = append(again, encodeFrame(r)...)
		}
		if !bytes.Equal(again, data[:intact]) {
			t.Fatalf("%d records re-encode to %d bytes, not the %d-byte intact prefix", len(recs), len(again), intact)
		}
	})
}
