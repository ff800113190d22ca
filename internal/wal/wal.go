// Package wal implements the engine's append-only mutation log. Every
// ApplyMutations batch is encoded as one record — the batch's edge
// mutations plus the graph version the batch committed as — and appended
// with length+CRC framing BEFORE the engine touches TEdges. Replay of the
// log over a snapshot base is exact because the engine's mutation path is
// deterministic SQL over deterministic state: re-applying the same batches
// in order reproduces the same relational state, including the applied
// prefix of a batch that failed mid-way.
//
// Frame format (little-endian):
//
//	[len u32][crc32(payload) u32][payload]
//
// Payload format:
//
//	[version u64][count u32] then per mutation [op u8][from i64][to i64][weight i64]
//
// A delete's weight is written as 0, and a delete read with any other
// weight ends the scan like any other corrupt payload.
//
// Durability is append-then-fsync with group commit: concurrent appenders
// coalesce onto one fsync covering every write buffered before it started
// (the sync-cohort pattern), so a burst of batches costs one disk flush,
// not one per batch. Recovery (Open) scans the log to the last intact
// record and truncates a torn tail — a crash mid-append loses at most the
// record being written, never a record whose Append returned.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Op is one mutation kind. The engine's mutation API speaks this type
// (core.MutOp is an alias), so a batch is logged as the caller built it.
type Op uint8

// Mutation operations.
const (
	// OpInsert adds a (From, To, Weight) edge, which the pair keeps when
	// it has no cheaper one.
	OpInsert Op = iota
	// OpDelete removes the (From, To) edge.
	OpDelete
	// OpUpdate sets the cost of the (From, To) edge to Weight.
	OpUpdate
)

var opNames = [...]string{OpInsert: "insert", OpDelete: "delete", OpUpdate: "update"}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", op)
}

// ParseOp maps a case-insensitive operation name (insert, delete, update)
// to its Op.
func ParseOp(s string) (Op, error) {
	for op, name := range opNames {
		if strings.EqualFold(s, name) {
			return Op(op), nil
		}
	}
	return 0, fmt.Errorf("unknown mutation op %q (insert|delete|update)", s)
}

// Mutation is one edge change: an element of an ApplyMutations batch and of
// a record. Weight is ignored for OpDelete, and the log stores it as 0.
type Mutation struct {
	Op       Op
	From, To int64
	Weight   int64
}

// Record is one logged ApplyMutations batch. Version is the graph version
// the batch committed as (the engine bumps once per batch); recovery skips
// records at or below the hydrating snapshot's version.
type Record struct {
	Version uint64
	Muts    []Mutation
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// maxRecord bounds one frame's payload during scan: a length field past it
// is treated as a torn/corrupt tail, not an allocation request.
const maxRecord = 1 << 28

const frameHeader = 8 // len u32 + crc u32

// Stats snapshots the log's counters (all monotonic except Size).
type Stats struct {
	// Appends counts records appended; Bytes the framed bytes written.
	Appends uint64
	Bytes   uint64
	// Syncs counts fsyncs issued; with group commit this is <= Appends,
	// and the gap is the coalescing win. SyncTime is total time spent in
	// fsync (the benchmark's mutate_mix reports it per batch).
	Syncs    uint64
	SyncTime time.Duration
	// Resets counts truncations to empty (one per committed snapshot).
	Resets uint64
	// Size is the current log length in bytes.
	Size int64
	// RecoveredRecords / TruncatedBytes describe the Open-time scan: how
	// many intact records the log held and how many torn trailing bytes
	// were cut.
	RecoveredRecords int
	TruncatedBytes   int64
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	path string

	mu     sync.Mutex // serializes writes and size accounting
	f      *os.File
	size   int64
	closed bool

	// Group-commit state: written numbers buffered appends, synced the
	// highest append covered by a completed fsync. One goroutine at a time
	// runs fsync; cohort members whose append is covered by it just wait.
	syncMu  sync.Mutex
	cond    *sync.Cond
	syncing bool
	written uint64
	synced  uint64

	appends   atomic.Uint64
	bytes     atomic.Uint64
	syncs     atomic.Uint64
	syncNanos atomic.Int64
	resets    atomic.Uint64

	recovered      int
	truncatedBytes int64
}

// Scan reads the log at path up to the last intact record, without
// modifying the file. It returns the decoded records and the byte offset
// of the intact prefix; a missing file reads as an empty log. A record
// with a bad length, a CRC mismatch (bit flip) or a truncated frame ends
// the scan — everything from there on is torn tail.
func Scan(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	recs, off := scanFrames(data)
	return recs, int64(off), nil
}

// scanFrames is Scan's frame loop over the log's bytes: the records of the
// intact prefix and the offset where it ends.
func scanFrames(data []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for len(data)-off >= frameHeader {
		ln := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if ln > maxRecord || off+frameHeader+int(ln) > len(data) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+int(ln)]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		rec, ok := decodePayload(payload)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += frameHeader + int(ln)
	}
	return recs, off
}

// Open validates the log at path (creating it if absent), truncates any
// torn tail past the last intact record, and returns the log positioned
// for appends plus the intact records for replay.
func Open(path string) (*Log, []Record, error) {
	recs, intact, err := Scan(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	torn := fi.Size() - intact
	if torn > 0 {
		// Cut the torn tail so the next append starts at a frame boundary;
		// fsync makes the truncation durable before any new record lands
		// after it.
		if err := f.Truncate(intact); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(intact, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek: %w", err)
	}
	l := &Log{path: path, f: f, size: intact,
		recovered: len(recs), truncatedBytes: max(torn, 0)}
	l.cond = sync.NewCond(&l.syncMu)
	return l, recs, nil
}

// Append encodes rec, writes the frame, and returns once an fsync covering
// it has completed (its own, or a concurrent cohort's).
func (l *Log) Append(rec Record) error {
	frame := encodeFrame(rec)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if _, err := l.f.Write(frame); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.syncMu.Lock()
	l.written++
	seq := l.written
	l.syncMu.Unlock()
	l.mu.Unlock()
	l.appends.Add(1)
	l.bytes.Add(uint64(len(frame)))
	return l.syncTo(seq)
}

// syncTo blocks until an fsync covering append seq has completed. The
// first waiter past the current fsync becomes the next syncer; everyone
// whose write it covers rides along.
func (l *Log) syncTo(seq uint64) error {
	for {
		l.syncMu.Lock()
		for l.synced < seq && l.syncing {
			l.cond.Wait()
		}
		if l.synced >= seq {
			l.syncMu.Unlock()
			return nil
		}
		l.syncing = true
		l.syncMu.Unlock()

		l.mu.Lock()
		target := l.written
		f, closed := l.f, l.closed
		l.mu.Unlock()
		var err error
		if closed {
			err = ErrClosed
		} else {
			t0 := time.Now()
			err = f.Sync()
			l.syncNanos.Add(time.Since(t0).Nanoseconds())
			l.syncs.Add(1)
		}

		l.syncMu.Lock()
		l.syncing = false
		if err == nil && l.synced < target {
			l.synced = target
		}
		l.cond.Broadcast()
		l.syncMu.Unlock()
		if err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
}

// Sync forces an fsync of everything appended so far (the shutdown path's
// final flush). A no-op on an empty or fully synced log.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	seq := l.written
	l.syncMu.Unlock()
	if seq == 0 {
		return nil
	}
	return l.syncTo(seq)
}

// Reset truncates the log to empty: the caller has committed a snapshot
// manifest covering every logged record, so the log's contents are
// superseded. Durable before return.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: reset seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset sync: %w", err)
	}
	l.size = 0
	l.syncMu.Lock()
	l.synced = l.written // nothing pending
	l.syncMu.Unlock()
	l.resets.Add(1)
	return nil
}

// Close fsyncs outstanding appends and closes the file. Idempotent.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// Size returns the current log length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:          l.appends.Load(),
		Bytes:            l.bytes.Load(),
		Syncs:            l.syncs.Load(),
		SyncTime:         time.Duration(l.syncNanos.Load()),
		Resets:           l.resets.Load(),
		Size:             l.Size(),
		RecoveredRecords: l.recovered,
		TruncatedBytes:   l.truncatedBytes,
	}
}

// encodeFrame renders one record as a framed byte slice.
func encodeFrame(rec Record) []byte {
	payload := make([]byte, 0, 12+25*len(rec.Muts))
	payload = binary.LittleEndian.AppendUint64(payload, rec.Version)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.Muts)))
	for _, m := range rec.Muts {
		if m.Op == OpDelete {
			m.Weight = 0
		}
		payload = append(payload, byte(m.Op))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(m.From))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(m.To))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(m.Weight))
	}
	frame := make([]byte, 0, frameHeader+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// decodePayload parses one record payload; ok is false on any structural
// mismatch (treated as corruption by the scanner).
func decodePayload(p []byte) (Record, bool) {
	if len(p) < 12 {
		return Record{}, false
	}
	rec := Record{Version: binary.LittleEndian.Uint64(p)}
	n := int(binary.LittleEndian.Uint32(p[8:]))
	if len(p) != 12+25*n {
		return Record{}, false
	}
	rec.Muts = make([]Mutation, n)
	off := 12
	for i := range rec.Muts {
		m := Mutation{
			Op:     Op(p[off]),
			From:   int64(binary.LittleEndian.Uint64(p[off+1:])),
			To:     int64(binary.LittleEndian.Uint64(p[off+9:])),
			Weight: int64(binary.LittleEndian.Uint64(p[off+17:])),
		}
		// The encoder writes a delete's weight as 0: anything else did not
		// come from it.
		if m.Op > OpUpdate || m.Op == OpDelete && m.Weight != 0 {
			return Record{}, false
		}
		rec.Muts[i] = m
		off += 25
	}
	return rec, true
}
