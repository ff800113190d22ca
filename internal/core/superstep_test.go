package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/rdb"
)

// TestNoGraphSentinel: an engine with nothing loaded refuses queries and
// superstep admissions with the typed ErrNoGraph, so coordinators branch
// with errors.Is instead of matching message text.
func TestNoGraphSentinel(t *testing.T) {
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e := NewEngine(db, Options{})
	_, err = e.Query(context.Background(), QueryRequest{Source: 0, Target: 1})
	if !errors.Is(err, ErrNoGraph) {
		t.Fatalf("Query on empty engine: err = %v, want ErrNoGraph", err)
	}
	_, err = e.BeginSuperstep(context.Background(), AlgBSDJ, 0)
	if !errors.Is(err, ErrNoGraph) {
		t.Fatalf("BeginSuperstep on empty engine: err = %v, want ErrNoGraph", err)
	}
}

// TestSuperstepUnsupportedAlg: the superstep surface rejects algorithms
// whose machinery cannot fan out across shards, with its own sentinel.
func TestSuperstepUnsupportedAlg(t *testing.T) {
	e := newLineEngine(t, 4)
	for _, alg := range []Algorithm{AlgDJ, AlgBDJ, AlgALT, AlgLabel, AlgAuto} {
		_, err := e.BeginSuperstep(context.Background(), alg, 0)
		if !errors.Is(err, ErrUnsupportedSuperstep) {
			t.Fatalf("BeginSuperstep(%v): err = %v, want ErrUnsupportedSuperstep", alg, err)
		}
	}
	// A rejected Begin must not leak its gate admission: an exclusive
	// operation (a mutation batch) has to get through afterwards.
	if _, err := e.ApplyMutations([]Mutation{{Op: MutInsert, From: 0, To: 2, Weight: 5}}); err != nil {
		t.Fatalf("mutation after rejected BeginSuperstep: %v", err)
	}
}

// TestSuperstepMatchesQuery runs the FEM loop over one admitted handle —
// the way a coordinator would with a single engine — and checks it does
// exactly what Engine.Query does over the handle it builds itself: same
// path, same iterations, same statements. Two handles on the same engine
// with the nodes split between them must still find the same distance.
func TestSuperstepMatchesQuery(t *testing.T) {
	e := newLineEngine(t, 24)
	ctx := context.Background()
	want, err := e.Query(ctx, QueryRequest{Source: 2, Target: 19, Alg: AlgBSDJ})
	if err != nil {
		t.Fatal(err)
	}

	begin := func() *Superstep {
		ss, err := e.BeginSuperstep(ctx, AlgBSDJ, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ss.Close)
		return ss
	}
	p, qs, err := RunSupersteps(ctx, []*Superstep{begin()}, soleOwner, 2, 19, 4*MaxDist)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Nodes, want.Path.Nodes) || p.Length != want.Distance {
		t.Fatalf("one handle: path %v (%d), Query found %v (%d)", p.Nodes, p.Length, want.Path.Nodes, want.Distance)
	}
	if qs.Iterations != want.Stats.Iterations || qs.Statements != want.Stats.Statements {
		t.Fatalf("one handle: %d iterations / %d statements, Query took %d / %d",
			qs.Iterations, qs.Statements, want.Stats.Iterations, want.Stats.Statements)
	}

	p, qs, err = RunSupersteps(ctx, []*Superstep{begin(), begin()}, func(nid int64) int { return int(nid % 2) }, 2, 19, 4*MaxDist)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Nodes, want.Path.Nodes) || p.Length != want.Distance {
		t.Fatalf("two handles: path %v (%d), Query found %v (%d)", p.Nodes, p.Length, want.Path.Nodes, want.Distance)
	}
	if qs.Exchanged == 0 {
		t.Fatal("two handles over a line must exchange candidates")
	}

	// An external bound below the true distance wins: the loop stops against
	// it and leaves the witness to the caller.
	p, _, err = RunSupersteps(ctx, []*Superstep{begin()}, soleOwner, 2, 19, want.Distance-1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Found || p.Length != want.Distance-1 || p.Nodes != nil {
		t.Fatalf("bounded run: %+v, want Found at %d with nil Nodes", p, want.Distance-1)
	}
}

// newLineEngine loads a directed weighted line 0->1->...->n-1 (weight 3).
func newLineEngine(t *testing.T, n int64) *Engine {
	t.Helper()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	e := NewEngine(db, Options{})
	if err := e.LoadGraph(lineGraph(t, n, 3)); err != nil {
		t.Fatal(err)
	}
	return e
}
