package rdb

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSessionReads exercises the shared side of the DB latch:
// many sessions SELECT concurrently over one database, and DBStats counts
// their statements and handles.
func TestConcurrentSessionReads(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	const rows = 200
	for i := 0; i < rows; i++ {
		if _, err := db.Exec("INSERT INTO t (k, v) VALUES (?, ?)", i, i*i); err != nil {
			t.Fatal(err)
		}
	}

	const (
		nSessions = 8
		nReads    = 25
	)
	base := db.Stats()
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		sessions[i] = db.Session()
	}
	if got := db.Stats().ActiveSessions; got != nSessions {
		t.Fatalf("active sessions: got %d, want %d", got, nSessions)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for r := 0; r < nReads; r++ {
				k := (i*nReads + r) % rows
				v, null, err := s.QueryInt("SELECT v FROM t WHERE k = ?", k)
				if err != nil {
					errs <- err
					return
				}
				if null || v != int64(k*k) {
					errs <- fmt.Errorf("session %d: k=%d got v=%d null=%v", i, k, v, null)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := db.Stats()
	if want := uint64(nSessions * nReads); st.SessionStatements != want {
		t.Errorf("session statements: got %d, want %d", st.SessionStatements, want)
	}
	if got := st.Statements - base.Statements; got != uint64(nSessions*nReads) {
		t.Errorf("db statements delta: got %d, want %d", got, nSessions*nReads)
	}
	for i, s := range sessions {
		if err := s.Close(); err != nil {
			t.Errorf("close %d: %v", i, err)
		}
	}
	if got := db.Stats().ActiveSessions; got != 0 {
		t.Errorf("active sessions after close: %d", got)
	}
	if _, err := sessions[0].Query("SELECT v FROM t WHERE k = 0"); err == nil {
		t.Error("query on closed session must fail")
	}
	if st := db.Stats(); st.SessionsOpened != nSessions {
		t.Errorf("sessions opened: got %d, want %d", st.SessionsOpened, nSessions)
	}
}

// TestSessionMixedReadWrite interleaves one writing session with several
// readers: the RW latch must keep every read consistent (readers see a k=v*v
// invariant that each write statement preserves atomically).
func TestSessionMixedReadWrite(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO kv (k, v) VALUES (0, 0)"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	writer := db.Session()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writer.Close()
		for i := 1; i <= 50; i++ {
			if _, err := writer.Exec("UPDATE kv SET v = ? WHERE k = 0", i); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			for i := 0; i < 50; i++ {
				v, null, err := s.QueryInt("SELECT v FROM kv WHERE k = 0")
				if err != nil {
					errs <- err
					return
				}
				if null || v < 0 || v > 50 {
					errs <- fmt.Errorf("reader saw inconsistent value v=%d null=%v", v, null)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
