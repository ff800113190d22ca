package repro_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro"
)

// TestFacadeQuickstart exercises the public API end to end, mirroring the
// README quickstart.
func TestFacadeQuickstart(t *testing.T) {
	db, err := repro.Open(repro.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	g := repro.PowerGraph(400, 3, 42)
	eng := repro.NewEngine(db, repro.EngineOptions{})
	if err := eng.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	st, err := eng.BuildSegTable(20)
	if err != nil {
		t.Fatal(err)
	}
	if st.EncodingNumber() == 0 {
		t.Fatal("empty segtable")
	}
	ost, err := eng.BuildOracle(repro.OracleConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ost.Rows == 0 || len(ost.Landmarks) != 4 {
		t.Fatalf("oracle build: %+v", ost)
	}

	for _, q := range repro.RandomQueries(g, 4, 9) {
		ref := repro.MDJ(g, q[0], q[1])
		iv, err := eng.DistanceInterval(context.Background(), q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if ref.Found && (iv.Lower > ref.Distance || (iv.UpperKnown() && iv.Upper < ref.Distance)) {
			t.Fatalf("approx interval [%d,%d] misses exact %d", iv.Lower, iv.Upper, ref.Distance)
		}
		for _, alg := range []repro.Algorithm{repro.AlgBSDJ, repro.AlgBSEG, repro.AlgALT} {
			res, err := eng.Query(context.Background(), repro.QueryRequest{Source: q[0], Target: q[1], Alg: alg})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if res.Found != ref.Found {
				t.Fatalf("%v: found=%v want %v", alg, res.Found, ref.Found)
			}
			if res.Found && res.Distance != ref.Distance {
				t.Fatalf("%v: %d want %d", alg, res.Distance, ref.Distance)
			}
			if res.Stats.Statements == 0 {
				t.Fatalf("%v: no statements recorded", alg)
			}
		}
	}
}

// TestFacadeProfiles verifies the exported profiles behave like the paper's
// two systems.
func TestFacadeProfiles(t *testing.T) {
	if !repro.ProfileDBMSX.SupportsMerge || !repro.ProfileDBMSX.SupportsWindow {
		t.Fatal("DBMS-X supports both features")
	}
	if repro.ProfilePostgreSQL9.SupportsMerge {
		t.Fatal("PostgreSQL 9.0 lacks MERGE")
	}
	if !repro.ProfilePostgreSQL9.SupportsWindow {
		t.Fatal("PostgreSQL 9.0 has window functions")
	}

	db, err := repro.Open(repro.DBOptions{Profile: repro.ProfilePostgreSQL9})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := repro.RandomGraph(60, 180, 1)
	eng := repro.NewEngine(db, repro.EngineOptions{})
	if err := eng.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	q := repro.RandomQueries(g, 1, 2)[0]
	ref := repro.MDJ(g, q[0], q[1])
	res, err := eng.Query(context.Background(), repro.QueryRequest{Source: q[0], Target: q[1], Alg: repro.AlgBSDJ})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != ref.Found || (res.Found && res.Distance != ref.Distance) {
		t.Fatalf("postgres profile result wrong: %+v vs %+v", res, ref)
	}
}

// TestFacadeSQLNulls: the SQL surface the facade exports stores no NULL. A
// nil INSERT argument is an error naming the column, in a heap table and in
// a clustered one, and leaves the table as it was; a nil comparison operand
// selects nothing.
func TestFacadeSQLNulls(t *testing.T) {
	db, err := repro.Open(repro.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, ddl := range []string{"CREATE TABLE h (a INT, b INT)", "CREATE TABLE c (a INT PRIMARY KEY, b INT)"} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []string{"h", "c"} {
		insert := "INSERT INTO " + tbl + " (a, b) VALUES (?, ?)"
		if _, err := db.Exec(insert, 5, 6); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			a, b any
			col  string
		}{{nil, 7, "a"}, {7, nil, "b"}} {
			if _, err := db.Exec(insert, c.a, c.b); err == nil || !strings.Contains(err.Error(), "column "+c.col+" is NULL") {
				t.Errorf("%s with (%v, %v): %v; want an error naming column %s", tbl, c.a, c.b, err, c.col)
			}
		}
		rows, err := db.Query("SELECT a, b FROM " + tbl)
		if err != nil || fmt.Sprint(rows.Data) != "[[5 6]]" {
			t.Errorf("%s after the rejected inserts: %v, %v", tbl, rows, err)
		}
		if n, _, err := db.QueryInt("SELECT COUNT(*) FROM "+tbl+" WHERE b <> ?", nil); err != nil || n != 0 {
			t.Errorf("%s WHERE b <> NULL: %d rows, %v; want 0", tbl, n, err)
		}
	}
}

// TestFacadeGraphHelpers covers the exported graph utilities.
func TestFacadeGraphHelpers(t *testing.T) {
	g, err := repro.NewGraph(3, []repro.Edge{{From: 0, To: 1, Weight: 2}, {From: 1, To: 2, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	r := repro.MBDJ(g, 0, 2)
	if !r.Found || r.Distance != 5 {
		t.Fatalf("MBDJ: %+v", r)
	}
	if repro.DBLPLike(0.001, 1).N == 0 ||
		repro.GoogleWebLike(0.001, 1).N == 0 ||
		repro.LiveJournalLike(0.0001, 1).N == 0 {
		t.Fatal("real-like generators")
	}
}
