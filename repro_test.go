package repro_test

import (
	"context"
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
	ost, err := eng.BuildOracle(repro.OracleConfig{K: 4, Strategy: repro.LandmarksByDegree})
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

// TestFacadeSQLNulls: the SQL surface the facade exports stores a NULL for a
// nil argument, and a NULL satisfies no comparison, in a heap table and in a
// clustered one. The engine's own tables hold no NULLs, so this is the client
// whose scans reach record.Match's NULL path rather than the NULL-free compare.
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
		for a, b := range []any{5, nil, 7} {
			if _, err := db.Exec("INSERT INTO "+tbl+" (a, b) VALUES (?, ?)", a, b); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			where      string
			arg, count int64
		}{{"b < ?", 10, 2}, {"b <> ?", 5, 1}, {"b = ?", 6, 0}} {
			n, _, err := db.QueryInt("SELECT COUNT(*) FROM "+tbl+" WHERE "+c.where, c.arg)
			if err != nil || n != c.count {
				t.Errorf("%s WHERE %s with %d: %d rows, %v; want %d", tbl, c.where, c.arg, n, err, c.count)
			}
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
