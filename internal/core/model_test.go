package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// The model test: one seeded model holds what the engine should be — a
// graph.Graph mirror, which indexes are valid, what the newest snapshot and
// the WAL behind it would recover, and the MutationCounters — and drives the
// engine through moves: Query, ApplyMutations (a refused batch included),
// the three builds, Snapshot, kill + Hydrate, LoadGraph and EvictAll. After
// every move it compares the answers with graph.MDJ and runs checkEngine.
// The engine's differentials are move scripts over it. The seed is logged,
// MUTATION_DIFF_SEED overrides it, and a failure names the seed, the step
// and the last moves, so any history reproduces exactly.

// mutationDiffSeed returns the harness seed, preferring the environment
// override.
func mutationDiffSeed(t *testing.T, def int64) int64 {
	t.Helper()
	if s := os.Getenv("MUTATION_DIFF_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad MUTATION_DIFF_SEED %q: %v", s, err)
		}
		return v
	}
	return def
}

// randomMutation draws one mutation that is valid against the mirror and
// applies it to the mirror. Inserts join two of the first nodes nodes;
// deletes and updates target existing pairs; when no edges remain the step
// degrades to an insert.
func randomMutation(t *testing.T, rnd *rand.Rand, mirror *graph.Graph, nodes int64) Mutation {
	t.Helper()
	op := rnd.Intn(10)
	if mirror.M() == 0 {
		op = 0
	}
	switch {
	case op < 4: // insert (40%)
		u := rnd.Int63n(nodes)
		v := rnd.Int63n(nodes)
		w := 1 + rnd.Int63n(9)
		if err := mirror.InsertEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
		return Mutation{Op: MutInsert, From: u, To: v, Weight: w}
	case op < 7: // delete (30%)
		ed := mirror.Edges[rnd.Intn(mirror.M())]
		if _, err := mirror.DeleteEdge(ed.From, ed.To); err != nil {
			t.Fatal(err)
		}
		return Mutation{Op: MutDelete, From: ed.From, To: ed.To}
	default: // update (30%)
		ed := mirror.Edges[rnd.Intn(mirror.M())]
		w := 1 + rnd.Int63n(9)
		if _, err := mirror.UpdateEdgeWeight(ed.From, ed.To, w); err != nil {
			t.Fatal(err)
		}
		return Mutation{Op: MutUpdate, From: ed.From, To: ed.To, Weight: w}
	}
}

// modelGraph copies g with every weight redrawn from 1..maxW and one node
// more, which no edge touches: the model keeps it isolated.
func modelGraph(g *graph.Graph, rnd *rand.Rand, maxW int64) *graph.Graph {
	edges := make([]graph.Edge, len(g.Edges))
	for i, ed := range g.Edges {
		edges[i] = graph.Edge{From: ed.From, To: ed.To, Weight: 1 + rnd.Int63n(maxW)}
	}
	out, err := graph.New(g.N+1, edges)
	if err != nil {
		panic(err)
	}
	return out
}

// modelIndexes is what the model expects of the engine's indexes: the
// SegTable's threshold (0 while none is valid), whether an oracle and hub
// labels are valid, and whether a mutation sent either cold since its build.
type modelIndexes struct {
	lthd                     int64
	oracle, labels           bool
	oracleStale, labelsStale bool
}

// serve reports whether alg's index is valid; the index-free algorithms
// and the planner always are.
func (ix modelIndexes) serve(alg Algorithm) bool {
	switch alg {
	case AlgBSEG:
		return ix.lthd > 0
	case AlgALT:
		return ix.oracle
	case AlgLabel:
		return ix.labels
	}
	return true
}

// model is that state and the moves. Only the test's goroutine moves it; the
// readers of a concurrent phase (beside) read states under mu.
type model struct {
	t    *testing.T
	seed int64
	rnd  *rand.Rand
	db   rdb.Options
	opts Options // a DataDir makes the engine durable and allows kill
	e    *Engine

	mirror *graph.Graph
	iso    int64       // the last node while no edge touches it, else -1
	algs   []Algorithm // what a query move asks, AlgAuto included
	ix     modelIndexes
	want   MutationCounters
	// The newest snapshot's indexes and the batches the WAL holds behind
	// it: what a kill recovers to.
	durable modelIndexes
	logged  MutationCounters

	// A concurrent phase records states[i], the graph after its i-th batch,
	// before the batch applies, and counts it in applied after.
	mu      sync.Mutex
	busy    bool
	states  []*graph.Graph
	applied int

	step  int
	moves []string
	kinds map[string]int
}

// newModel opens an engine with no graph; a script's first move loads one.
// seed is the default mutationDiffSeed overrides.
func newModel(t *testing.T, seed int64, db rdb.Options, opts Options) *model {
	seed = mutationDiffSeed(t, seed)
	t.Logf("model: seed=%d (override with MUTATION_DIFF_SEED)", seed)
	m := &model{t: t, seed: seed, rnd: rand.New(rand.NewSource(seed)), db: db, opts: opts,
		algs:  []Algorithm{AlgDJ, AlgBDJ, AlgBSDJ, AlgBBFS, AlgBSEG, AlgALT, AlgLabel, AlgAuto},
		kinds: map[string]int{}}
	e := NewEngine(m.openDB(), opts)
	t.Cleanup(func() { e.Close() })
	m.e = e
	return m
}

func (m *model) openDB() *rdb.DB {
	db, err := rdb.Open(m.db)
	if err != nil {
		m.t.Fatal(err)
	}
	m.t.Cleanup(func() { db.Close() })
	return db
}

func (m *model) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d, step %d: %s\nlast moves: %s", m.seed, m.step, fmt.Sprintf(format, args...),
		strings.Join(m.moves[max(0, len(m.moves)-8):], ", "))
}

// after records a move, fails on its error and holds the engine to the
// model.
func (m *model) after(kind, move string, err error) {
	m.t.Helper()
	if err != nil {
		m.fatalf("%s: %v", move, err)
	}
	m.step++
	m.kinds[kind]++
	m.moves = append(m.moves, move)
	m.checkEngine()
}

// checkEngine holds the engine to the model: its graph size, index flags
// and MutationCounters; then, unless readers are running, what only a
// quiet engine shows — checkSegTable on a built SegTable, CheckPages, no
// pinned page, no unbalanced Unpin, no scratch lease out, an idle gate and
// no search that saw the version move under it.
func (m *model) checkEngine() {
	m.t.Helper()
	e := m.e
	got := modelIndexes{e.SegLthd(), e.Oracle() != nil, e.Labels() != nil, e.OracleInvalidated(), e.LabelsInvalidated()}
	switch {
	case e.Nodes() != int(m.mirror.N) || e.Edges() != len(graph.Collapse(slices.Clone(m.mirror.Edges))):
		m.fatalf("engine holds %d nodes and %d edge pairs, the mirror %d and %d edges", e.Nodes(), e.Edges(), m.mirror.N, m.mirror.M())
	case got != m.ix:
		m.fatalf("indexes %+v, the model expects %+v", got, m.ix)
	case e.MutationStats() != m.want:
		m.fatalf("mutation counters %+v, the model expects %+v", e.MutationStats(), m.want)
	case m.busy:
		return
	}
	if m.ix.lthd > 0 {
		if err := e.checkSegTable(); err != nil {
			m.fatalf("SegTable: %v", err)
		}
	}
	if err := e.DB().CheckPages(); err != nil {
		m.fatalf("%v", err)
	}
	pool := e.DB().Pool()
	if n, bad := pool.PinnedPages(), pool.Stats().BadUnpins; n != 0 || bad != 0 {
		m.fatalf("%d pages pinned at idle, %d unbalanced Unpin calls", n, bad)
	}
	cs := e.ConcurrencyStats()
	if g := cs.Gate; cs.Scratch.Live != 0 || cs.SnapshotRetries != 0 || g.Readers != 0 || g.WritersWaiting != 0 || g.WriterActive {
		m.fatalf("not quiet: %d scratch sets leased, %d snapshot retries, gate %+v", cs.Scratch.Live, cs.SnapshotRetries, g)
	}
}

// load is LoadGraph: every index goes. A durable load retires every
// snapshot and resets the WAL, so until the next snapshot a kill has nothing
// to hydrate (TestLoadRetiresSnapshots); the snapshot that follows it here
// is that contract, as at spdbd's startup, which snapshots after a load.
func (m *model) load(g *graph.Graph) {
	m.t.Helper()
	err := m.e.LoadGraph(g)
	m.mirror, m.ix, m.iso = g.Clone(), modelIndexes{}, -1
	if n := g.N - 1; g.OutDegree(n) == 0 {
		m.iso = n
		g.InEdges(n, func(int64, int64) { m.iso = -1 })
	}
	m.after("load", fmt.Sprintf("load(%d nodes, %d edges)", g.N, g.M()), err)
	if m.opts.DataDir != "" {
		m.snapshot()
	}
}

func (m *model) buildSeg(lthd int64) {
	m.t.Helper()
	_, err := m.e.BuildSegTable(lthd)
	m.ix.lthd = lthd
	m.after("seg", fmt.Sprintf("seg(%d)", lthd), err)
}

func (m *model) buildOracle(k int) {
	m.t.Helper()
	_, err := m.e.BuildOracle(oracle.Config{K: k})
	m.ix.oracle, m.ix.oracleStale = true, false
	m.after("oracle", fmt.Sprintf("oracle(%d)", k), err)
}

func (m *model) buildLabels() {
	m.t.Helper()
	_, err := m.e.BuildLabels()
	m.ix.labels, m.ix.labelsStale = true, false
	m.after("labels", "labels", err)
}

func (m *model) evict() {
	m.t.Helper()
	m.after("evict", "evict", m.e.DB().Pool().EvictAll())
}

// snapshot commits the engine's state: a kill recovers to it plus the
// batches logged from here on.
func (m *model) snapshot() *SnapshotStats {
	m.t.Helper()
	st, err := m.e.Snapshot(context.Background())
	m.durable = modelIndexes{lthd: m.ix.lthd, oracle: m.ix.oracle, labels: m.ix.labels}
	m.logged = MutationCounters{}
	m.after("snapshot", "snapshot", err)
	return st
}

// kill drops the engine without Close, as a crash would (every batch was
// fsynced before it applied), and hydrates a fresh one from the data
// directory: the graph is the mirror, the indexes the snapshot's, and the
// counters those of the replayed batches. Replay re-runs the label
// keep-analysis and the SegTable repairs, so their counters are read back
// and held to what the replayed batches allow.
func (m *model) kill() {
	m.t.Helper()
	e, err := OpenFromSnapshot(m.openDB(), m.opts)
	if err != nil {
		m.fatalf("hydrate: %v", err)
	}
	m.t.Cleanup(func() { e.Close() })
	m.e = e
	d, replayed := m.durable, m.logged.Batches > 0
	m.ix = modelIndexes{lthd: d.lthd, oracle: d.oracle && !replayed, labels: d.labels, oracleStale: d.oracle && replayed}
	m.want = m.logged
	if m.ix.oracleStale {
		m.want.OracleInvalidations = 1
	}
	got := e.MutationStats()
	if d.lthd > 0 {
		m.want.SegRepairs, m.want.SegRebuilds, m.want.RowsRepaired = got.SegRepairs, got.SegRebuilds, got.RowsRepaired
	}
	if d.labels {
		if n := m.logged.Inserts + m.logged.Deletes + m.logged.Updates; got.LabelInvalidations > 1 || got.LabelKeeps+got.LabelInvalidations > n {
			m.fatalf("replaying %d mutations kept the labels %d times and invalidated them %d times", n, got.LabelKeeps, got.LabelInvalidations)
		}
		m.want.LabelKeeps, m.want.LabelInvalidations = got.LabelKeeps, got.LabelInvalidations
		m.ix.labels, m.ix.labelsStale = got.LabelInvalidations == 0, got.LabelInvalidations == 1
	}
	if ds := e.DurabilityStats(); ds.Hydrations != 1 || ds.ReplayedRecords != m.logged.Batches {
		m.fatalf("hydration stats %+v, want one hydration replaying %d records", ds, m.logged.Batches)
	}
	m.after("kill", fmt.Sprintf("kill(%d batches replayed)", m.logged.Batches), nil)
}

// mutate applies k randomMutation draws as one batch; inserts spare the
// isolated node.
func (m *model) mutate(k int) *MaintStats {
	m.t.Helper()
	nodes := m.mirror.N
	if m.iso >= 0 {
		nodes = m.iso
	}
	muts := make([]Mutation, k)
	for i := range muts {
		muts[i] = randomMutation(m.t, m.rnd, m.mirror, nodes)
	}
	return m.commit(muts)
}

// apply applies a batch the script chose to the mirror and the engine.
func (m *model) apply(muts ...Mutation) *MaintStats {
	m.t.Helper()
	for _, mu := range muts {
		var err error
		switch mu.Op {
		case MutInsert:
			err = m.mirror.InsertEdge(mu.From, mu.To, mu.Weight)
		case MutDelete:
			_, err = m.mirror.DeleteEdge(mu.From, mu.To)
		case MutUpdate:
			_, err = m.mirror.UpdateEdgeWeight(mu.From, mu.To, mu.Weight)
		}
		if err != nil {
			m.fatalf("mirror %+v: %v", mu, err)
		}
		if mu.From == m.iso || mu.To == m.iso {
			m.iso = -1
		}
	}
	return m.commit(muts)
}

// commit runs one batch the mirror already holds. The counters follow the
// plan; a valid oracle goes cold; valid labels keep mutations until one
// sends them cold, and the batch's stats and the engine's markers say
// whether one did.
func (m *model) commit(muts []Mutation) *MaintStats {
	m.t.Helper()
	m.mu.Lock()
	if m.busy {
		m.states = append(m.states, m.mirror.Clone())
	}
	m.mu.Unlock()
	st, err := m.e.ApplyMutations(muts)
	if err != nil {
		m.fatalf("ApplyMutations(%v): %v", muts, err)
	}
	m.mu.Lock()
	m.applied++
	m.mu.Unlock()
	for _, c := range []*MutationCounters{&m.want, &m.logged} {
		c.Batches++
		for _, mu := range muts {
			switch mu.Op {
			case MutInsert:
				c.Inserts++
			case MutDelete:
				c.Deletes++
			case MutUpdate:
				c.Updates++
			}
		}
	}
	if st.Applied != len(muts) || st.OracleInvalidated != m.ix.oracle {
		m.fatalf("batch %v: stats %+v with the oracle valid=%v", muts, st, m.ix.oracle)
	}
	if m.ix.oracle {
		m.want.OracleInvalidations++
		m.ix.oracle, m.ix.oracleStale = false, true
	}
	// Labels count at most one verdict a mutation, at most one of them an
	// invalidation; an update to the pair's current weight moves nothing
	// and gets none.
	got := m.e.MutationStats()
	keeps, lost := got.LabelKeeps-m.want.LabelKeeps, got.LabelInvalidations-m.want.LabelInvalidations
	counted := m.ix.labels && lost <= 1 && keeps+lost <= uint64(len(muts)) || keeps == 0 && lost == 0
	if !counted || st.LabelsInvalidated != (lost == 1) {
		m.fatalf("batch of %d with labels valid=%v: %d keeps, %d invalidations, stats say invalidated=%v", len(muts), m.ix.labels, keeps, lost, st.LabelsInvalidated)
	}
	m.want.LabelKeeps, m.want.LabelInvalidations = got.LabelKeeps, got.LabelInvalidations
	if lost == 1 {
		m.ix.labels, m.ix.labelsStale = false, true
	}
	if m.ix.lthd > 0 {
		if got.SegRepairs+got.SegRebuilds > m.want.SegRepairs+m.want.SegRebuilds+uint64(len(muts)) {
			m.fatalf("batch of %d: %d repairs and rebuilds, after %d", len(muts), got.SegRepairs+got.SegRebuilds, m.want.SegRepairs+m.want.SegRebuilds)
		}
		m.want.SegRepairs, m.want.SegRebuilds, m.want.RowsRepaired = got.SegRepairs, got.SegRebuilds, got.RowsRepaired
	}
	m.after("mutate", fmt.Sprintf("mutate%v", muts), nil)
	return st
}

// badBatch draws k valid mutations against a copy of the mirror, then a
// delete or an update of a pair with no edge after them, sometimes one the
// batch itself deleted. The engine must refuse the whole batch with nil
// stats before logging it: the mirror, the version, the index flags, the
// counters and the WAL's appends stay as they were, and a later kill
// replays only m.logged's batches.
func (m *model) badBatch(k int) {
	m.t.Helper()
	nodes := m.mirror.N
	if m.iso >= 0 {
		nodes = m.iso
	}
	after := m.mirror.Clone()
	muts := make([]Mutation, k, k+1)
	for i := range muts {
		muts[i] = randomMutation(m.t, m.rnd, after, nodes)
	}
	absent := func(u, v int64) bool {
		has := false
		after.OutEdges(u, func(to, _ int64) { has = has || to == v })
		return !has
	}
	var gone [][2]int64
	for _, mu := range muts {
		if mu.Op == MutDelete && absent(mu.From, mu.To) {
			gone = append(gone, [2]int64{mu.From, mu.To})
		}
	}
	p := m.pair()
	if len(gone) > 0 && m.rnd.Intn(2) == 0 {
		p = gone[m.rnd.Intn(len(gone))]
	}
	for !absent(p[0], p[1]) {
		p = m.pair()
	}
	bad := Mutation{Op: MutDelete, From: p[0], To: p[1]}
	if m.rnd.Intn(2) == 0 {
		bad = Mutation{Op: MutUpdate, From: p[0], To: p[1], Weight: 1 + m.rnd.Int63n(9)}
	}
	muts = append(muts, bad)
	v0, appends0 := m.e.GraphVersion(), m.e.DurabilityStats().WAL.Appends
	st, err := m.e.ApplyMutations(muts)
	want := fmt.Sprintf("mutation %d (%s %d->%d): no edge to %s", k, bad.Op, bad.From, bad.To, bad.Op)
	switch {
	case err == nil || !strings.Contains(err.Error(), want):
		m.fatalf("bad batch %v: error %v, want %q", muts, err, want)
	case st != nil:
		m.fatalf("bad batch %v: stats %+v, want nil", muts, st)
	case m.e.GraphVersion() != v0 || m.e.DurabilityStats().WAL.Appends != appends0:
		m.fatalf("bad batch %v moved the version %d -> %d and the WAL appends %d -> %d", muts, v0, m.e.GraphVersion(), appends0, m.e.DurabilityStats().WAL.Appends)
	}
	m.after("bad", fmt.Sprintf("bad%v", muts), nil)
}

func (m *model) pair() [2]int64 {
	return [2]int64{m.rnd.Int63n(m.mirror.N), m.rnd.Int63n(m.mirror.N)}
}

// draw returns k random pairs, a pair s == t and, while the graph keeps
// one, the isolated node in both directions.
func (m *model) draw(k int) [][2]int64 {
	out := make([][2]int64, 0, k+3)
	for i := 0; i < k; i++ {
		out = append(out, m.pair())
	}
	x := m.pair()[0]
	out = append(out, [2]int64{x, x})
	if m.iso >= 0 {
		out = append(out, [2]int64{x, m.iso}, [2]int64{m.iso, x})
	}
	return out
}

// query asks every algorithm of m.algs about each pair: a hint whose
// index is not valid must be refused, every other answer must be exact,
// and an AlgAuto one must not be approximate. DistanceInterval must
// bracket the distance while an oracle is valid and refuse otherwise.
func (m *model) query(pairs [][2]int64) {
	m.t.Helper()
	ctx := context.Background()
	for _, q := range pairs {
		s, t := q[0], q[1]
		for _, alg := range m.algs {
			res, err := m.e.Query(ctx, QueryRequest{Source: s, Target: t, Alg: alg})
			valid := m.ix.serve(alg)
			switch {
			case !valid && err == nil:
				m.fatalf("%v s=%d t=%d answered without its index (%+v)", alg, s, t, m.ix)
			case !valid:
				continue
			case err != nil:
				m.fatalf("%v s=%d t=%d: %v", alg, s, t, err)
			case res.Approximate:
				m.fatalf("%v s=%d t=%d: an exact request answered approximately", alg, s, t)
			}
			if err := pathErr(m.mirror, s, t, res.Path); err != nil {
				m.fatalf("%v (resolved %v) s=%d t=%d: %v", alg, res.Algorithm, s, t, err)
			}
		}
		iv, err := m.e.DistanceInterval(ctx, s, t)
		if m.ix.oracle != (err == nil) {
			m.fatalf("DistanceInterval s=%d t=%d with the oracle valid=%v: %v", s, t, m.ix.oracle, err)
		}
		if err == nil {
			if err := intervalErr(iv, graph.MDJ(m.mirror, s, t)); err != nil {
				m.fatalf("DistanceInterval s=%d t=%d: %v", s, t, err)
			}
		}
	}
	m.after("query", fmt.Sprintf("query(%d pairs)", len(pairs)), nil)
}

// intervalErr says how iv fails to bracket ref's distance.
func intervalErr(iv Interval, ref graph.PathResult) error {
	switch {
	case iv.Lower > iv.Upper:
		return fmt.Errorf("inverted interval [%d, %d]", iv.Lower, iv.Upper)
	case !ref.Found && iv.UpperKnown():
		return fmt.Errorf("finite upper %d on an unreachable pair", iv.Upper)
	case ref.Found && (iv.Lower > ref.Distance || iv.Upper < ref.Distance):
		return fmt.Errorf("[%d, %d] does not bracket %d", iv.Lower, iv.Upper, ref.Distance)
	}
	return nil
}

// The metamorphic moves hold the engine's answers to each other, not to
// graph.MDJ: to a second engine over a transformed copy of the mirror,
// built with the model's indexes, or to other answers of the same engine.

// twin opens an engine over g with the indexes the model holds valid.
func (m *model) twin(g *graph.Graph) *Engine {
	m.t.Helper()
	e := newTestEngine(m.t, g, rdb.Options{}, Options{})
	if m.ix.lthd > 0 {
		if _, err := e.BuildSegTable(m.ix.lthd); err != nil {
			m.fatalf("twin SegTable: %v", err)
		}
	}
	if m.ix.oracle {
		if _, err := e.BuildOracle(oracle.Config{K: 4}); err != nil {
			m.fatalf("twin oracle: %v", err)
		}
	}
	if m.ix.labels {
		if _, err := e.BuildLabels(); err != nil {
			m.fatalf("twin labels: %v", err)
		}
	}
	return e
}

// dist is e's answer for s -> t by alg: the distance, or -1 when none.
func (m *model) dist(e *Engine, alg Algorithm, s, t int64) int64 {
	m.t.Helper()
	res, err := e.Query(context.Background(), QueryRequest{Source: s, Target: t, Alg: alg})
	switch {
	case err != nil:
		m.fatalf("%v s=%d t=%d: %v", alg, s, t, err)
	case !res.Found:
		return -1
	}
	return res.Distance
}

// mapped holds every algorithm the model's indexes serve to one relation:
// d(s, t) on the engine equals d(f(s), f(t)) on twin, whose graph is the
// mirror under the transformation move names.
func (m *model) mapped(move string, twin *Engine, f func(s, t int64) (int64, int64), pairs [][2]int64) {
	m.t.Helper()
	for _, q := range pairs {
		fs, ft := f(q[0], q[1])
		for _, alg := range m.algs {
			if !m.ix.serve(alg) {
				continue
			}
			if d, e := m.dist(m.e, alg, q[0], q[1]), m.dist(twin, alg, fs, ft); d != e {
				m.fatalf("%s, %v: d(%d, %d) = %d, but d(%d, %d) = %d on the %s graph", move, alg, q[0], q[1], d, fs, ft, e, move)
			}
		}
	}
	m.after(move, fmt.Sprintf("%s(%d pairs)", move, len(pairs)), nil)
}

// reversed: d(s, t) on G equals d(t, s) on reverse(G).
func (m *model) reversed(pairs [][2]int64) {
	m.t.Helper()
	edges := make([]graph.Edge, len(m.mirror.Edges))
	for i, ed := range m.mirror.Edges {
		edges[i] = graph.Edge{From: ed.To, To: ed.From, Weight: ed.Weight}
	}
	g, err := graph.New(m.mirror.N, edges)
	if err != nil {
		m.fatalf("reverse: %v", err)
	}
	m.mapped("reversed", m.twin(g), func(s, t int64) (int64, int64) { return t, s }, pairs)
}

// renumbered: d(s, t) on G equals d(p(s), p(t)) on G with its nodes
// renamed by a random permutation p.
func (m *model) renumbered(pairs [][2]int64) {
	m.t.Helper()
	p := m.rnd.Perm(int(m.mirror.N))
	edges := make([]graph.Edge, len(m.mirror.Edges))
	for i, ed := range m.mirror.Edges {
		edges[i] = graph.Edge{From: int64(p[ed.From]), To: int64(p[ed.To]), Weight: ed.Weight}
	}
	g, err := graph.New(m.mirror.N, edges)
	if err != nil {
		m.fatalf("renumber: %v", err)
	}
	m.mapped("renumbered", m.twin(g), func(s, t int64) (int64, int64) { return int64(p[s]), int64(p[t]) }, pairs)
}

// triangle asks for every ordered pair of k random nodes, each pair by the
// next algorithm the indexes serve, and holds the answers to the triangle
// inequality: d(a, c) <= d(a, b) + d(b, c), a c reached whenever a reaches
// b and b reaches c.
func (m *model) triangle(k int) {
	m.t.Helper()
	var algs []Algorithm
	for _, alg := range m.algs {
		if m.ix.serve(alg) {
			algs = append(algs, alg)
		}
	}
	nodes := make([]int64, k)
	for i := range nodes {
		nodes[i] = m.rnd.Int63n(m.mirror.N)
	}
	d := make([][]int64, k)
	by := make([][]Algorithm, k)
	for i, a := range nodes {
		d[i], by[i] = make([]int64, k), make([]Algorithm, k)
		for j, b := range nodes {
			by[i][j] = algs[(i*k+j)%len(algs)]
			d[i][j] = m.dist(m.e, by[i][j], a, b)
		}
	}
	for i := range nodes {
		for j := range nodes {
			for l := range nodes {
				if d[i][j] < 0 || d[j][l] < 0 || d[i][l] >= 0 && d[i][l] <= d[i][j]+d[j][l] {
					continue
				}
				m.fatalf("triangle: d(%d, %d) = %d (%v), but d(%d, %d) = %d (%v) and d(%d, %d) = %d (%v)",
					nodes[i], nodes[l], d[i][l], by[i][l], nodes[i], nodes[j], d[i][j], by[i][j], nodes[j], nodes[l], d[j][l], by[j][l])
			}
		}
	}
	m.after("triangle", fmt.Sprintf("triangle(%d nodes)", k), nil)
}

// sameAsRebuild holds the engine's segment tables to a from-scratch build
// over the mirror at the model's threshold.
func (m *model) sameAsRebuild() {
	m.t.Helper()
	ref := newTestEngine(m.t, m.mirror.Clone(), rdb.Options{}, Options{})
	if _, err := ref.BuildSegTable(m.ix.lthd); err != nil {
		m.fatalf("rebuild: %v", err)
	}
	sameSegTable(m.t, m.e, ref)
}

// beside runs readers goroutines, each calling read reads times, while the
// test's goroutine runs write, whose argument reports that every reader
// is done. A read is checked with window: its answer must hold on some
// graph whose lifetime overlapped it. checkEngine runs in full once all
// have returned.
func (m *model) beside(readers, reads int, read func(w, i int) error, write func(done func() bool)) {
	m.t.Helper()
	m.mu.Lock()
	m.busy, m.states, m.applied = true, []*graph.Graph{m.mirror.Clone()}, 0
	m.mu.Unlock()
	var wg sync.WaitGroup
	defer wg.Wait() // a writer's Fatal must not close the engine under the readers
	var left atomic.Int32
	left.Store(int32(readers))
	errs := make(chan error, readers*reads)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer left.Add(-1)
			for i := 0; i < reads; i++ {
				if err := read(w, i); err != nil {
					errs <- fmt.Errorf("reader %d, read %d: %w", w, i, err)
				}
			}
		}(w)
	}
	write(func() bool { return left.Load() == 0 })
	wg.Wait()
	close(errs)
	for err := range errs {
		m.t.Errorf("seed %d: %v", m.seed, err)
	}
	m.mu.Lock()
	m.busy, m.states = false, nil
	m.mu.Unlock()
	m.checkEngine()
}

// window runs a read and returns the graphs whose lifetime overlapped it:
// the engine serves the graph of some batch committed at or after the
// read's start, so states[applied-at-start:] holds every one it can see.
func (m *model) window(read func()) []*graph.Graph {
	m.mu.Lock()
	lo := m.applied
	m.mu.Unlock()
	read()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states[lo:]
}

// read is one query of a concurrent phase: its answer must be exact on
// some graph of its window.
func (m *model) read(alg Algorithm, s, t int64) error {
	var res QueryResult
	var err error
	window := m.window(func() { res, err = m.e.Query(context.Background(), QueryRequest{Source: s, Target: t, Alg: alg}) })
	for _, g := range window {
		if err == nil && pathErr(g, s, t, res.Path) == nil {
			return nil
		}
	}
	return fmt.Errorf("%v %d->%d: %+v (%v) holds on none of the %d graphs it overlapped", alg, s, t, res.Path, err, len(window))
}

// churn applies steps randomMutation draws in batches of 1..batchMax and
// calls each after every batch with the batch's number, from 1.
func (m *model) churn(steps, batchMax int, each func(batch int)) {
	m.t.Helper()
	for applied, b := 0, 1; applied < steps; b++ {
		k := min(1+m.rnd.Intn(batchMax), steps-applied)
		m.mutate(k)
		applied += k
		each(b)
	}
}

// TestModelHistory runs one mixed history over every move kind on a
// durable engine behind a 64-page pool: rounds of every kind once plus
// extra queries and batches, shuffled, so each kind meets every other.
func TestModelHistory(t *testing.T) {
	m := newModel(t, 20261018, rdb.Options{BufferPoolPages: 64}, Options{DataDir: t.TempDir()})
	newGraph := func() *graph.Graph {
		return modelGraph(graph.Random(16+m.rnd.Int63n(16), 50+m.rnd.Intn(40), m.rnd.Int63()), m.rnd, 9)
	}
	m.load(newGraph())
	moves := []struct {
		kind string
		move func()
	}{
		{"query", func() { m.query(m.draw(2)) }},
		{"mutate", func() { m.mutate(1 + m.rnd.Intn(6)) }},
		{"bad", func() { m.badBatch(1 + m.rnd.Intn(4)) }},
		{"seg", func() { m.buildSeg(4 + m.rnd.Int63n(12)) }},
		{"oracle", func() { m.buildOracle(2 + m.rnd.Intn(3)) }},
		{"labels", m.buildLabels},
		{"snapshot", func() { m.snapshot() }},
		{"kill", m.kill},
		{"load", func() { m.load(newGraph()) }},
		{"evict", m.evict},
		{"reversed", func() { m.reversed(m.draw(2)) }},
		{"renumbered", func() { m.renumbered(m.draw(2)) }},
		{"triangle", func() { m.triangle(4) }},
	}
	for round := 0; round < 8; round++ {
		deck := []int{0, 0, 1, 1, 1}
		for i := range moves {
			deck = append(deck, i)
		}
		m.rnd.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, i := range deck {
			moves[i].move()
		}
	}
	for _, mv := range moves {
		if m.kinds[mv.kind] == 0 {
			t.Errorf("no %s move ran", mv.kind)
		}
	}
	t.Logf("%d moves: %v", m.step, m.kinds)
}

// TestDifferentialAllAlgorithms: every algorithm, the planner and the
// interval read on a random and a power-law graph with an isolated node,
// before and after a shortcut insert. Weights are drawn small against lthd
// (every three-edge shortest path is a segment), so BSEG answers unfold
// segments with two or more interior nodes, forward and backward.
func TestDifferentialAllAlgorithms(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"random": graph.Random(50, 150, 1234), "power": graph.Power(60, 3, 99)} {
		t.Run(name, func(t *testing.T) {
			m := newModel(t, 1234, rdb.Options{}, Options{})
			maxW := 2 + m.rnd.Int63n(4)
			m.load(modelGraph(g, m.rnd, maxW))
			m.buildSeg(3*maxW + m.rnd.Int63n(maxW))
			// The guard: some TOutSegs row (fid, tid) has a pid, and (fid, pid)
			// a pid, other than fid — two interior nodes or more.
			rows, err := m.e.DB().Query("SELECT a.fid FROM " + TblOutSegs + " a, " + TblOutSegs +
				" b WHERE b.fid = a.fid AND b.tid = a.pid AND a.pid <> a.fid AND b.pid <> b.fid")
			if err != nil || rows.Len() == 0 {
				m.fatalf("no segment has two interior nodes at lthd %d over weights 1..%d (%v)", m.ix.lthd, maxW, err)
			}
			m.buildOracle(4)
			m.query(m.draw(8))
			m.apply(Mutation{Op: MutInsert, From: m.rnd.Int63n(g.N), To: m.rnd.Int63n(g.N), Weight: 1})
			m.buildOracle(4)
			m.query(m.draw(8))
		})
	}
}

// TestModelMetamorphic: the metamorphic moves, on a random and a
// power-law graph with every index built, then after a churn that leaves
// the oracle cold. No move here compares with graph.MDJ: each answer is
// held to a twin engine's over the reversed or renumbered graph, or to
// the same engine's other answers.
func TestModelMetamorphic(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"random": graph.Random(40, 120, 7), "power": graph.Power(50, 3, 8)} {
		t.Run(name, func(t *testing.T) {
			m := newModel(t, 20261019, rdb.Options{}, Options{})
			m.load(modelGraph(g, m.rnd, 9))
			m.buildSeg(12)
			m.buildOracle(4)
			m.buildLabels()
			m.reversed(m.draw(6))
			m.renumbered(m.draw(6))
			m.triangle(7)
			m.churn(12, 4, func(int) {})
			m.reversed(m.draw(4))
			m.renumbered(m.draw(4))
			m.triangle(7)
		})
	}
}

func TestRandomGraphAllAlgorithms(t *testing.T) {
	m := newModel(t, 42, rdb.Options{}, Options{})
	m.load(graph.Random(60, 180, 42))
	m.buildSeg(30)
	m.buildOracle(4)
	m.query(m.draw(12))
}

// TestPlannerDifferential is the exactness harness for AlgAuto: across
// every index state, planner-chosen answers equal the in-memory Dijkstra
// reference in weight (and are real paths edge by edge).
func TestPlannerDifferential(t *testing.T) {
	for name, build := range map[string]func(m *model){
		"bare":        func(m *model) {},
		"seg":         func(m *model) { m.buildSeg(20) },
		"oracle":      func(m *model) { m.buildOracle(4) },
		"seg+oracle":  func(m *model) { m.buildSeg(20); m.buildOracle(4) },
		"weak-seg":    func(m *model) { m.buildSeg(1); m.buildOracle(4) },
		"tiny-random": func(m *model) { m.load(graph.Random(80, 240, 17)); m.buildSeg(8); m.buildOracle(4) }, // a reload
	} {
		t.Run(name, func(t *testing.T) {
			m := newModel(t, 13, rdb.Options{}, Options{})
			m.algs = []Algorithm{AlgAuto}
			m.load(graph.Power(400, 3, 11))
			build(m)
			m.query(m.draw(8))
		})
	}
}

// TestMutationDifferential: 1000 random insert/delete/update steps in
// batches, every algorithm checked after every batch, and the maintained
// segment tables equal to a rebuild at the end.
func TestMutationDifferential(t *testing.T) {
	const steps = 1000
	m := newModel(t, 20260726, rdb.Options{}, Options{})
	// Small weights keep multi-hop segments under lthd common, so the
	// decremental repair is exercised constantly rather than degenerating
	// into single-edge touch sets.
	m.load(modelGraph(graph.Random(28, 80, m.rnd.Int63()), m.rnd, 9))
	m.buildSeg(6)
	m.churn(steps, 8, func(int) {
		// Every batch kills the oracle; a small rebuild keeps ALT in the
		// comparison after every batch. Two random pairs a batch: what
		// draw adds, s == t and the isolated node, no batch can move.
		m.buildOracle(2)
		m.query([][2]int64{m.pair(), m.pair()})
	})
	if w := m.want; w.Inserts+w.Deletes+w.Updates != steps || w.SegRepairs == 0 {
		t.Errorf("counters %+v: want %d mutations and some scoped decremental repair", w, steps)
	}
	m.sameAsRebuild()
}

// TestLabelMutationDifferential churns the graph under the hub labels,
// rebuilding them whenever a batch invalidates them (commit holds the
// markers to the keep-analysis), and checks AlgLabel and the planner after
// every batch.
func TestLabelMutationDifferential(t *testing.T) {
	const steps = 240
	m := newModel(t, 20260807, rdb.Options{}, Options{})
	m.algs = []Algorithm{AlgLabel, AlgAuto}
	m.load(modelGraph(graph.Random(24, 70, m.rnd.Int63()), m.rnd, 9))
	m.buildLabels()
	m.churn(steps, 6, func(int) {
		if !m.ix.labels {
			m.buildLabels()
		}
		m.query(m.draw(3))
	})
	if w := m.want; w.LabelKeeps == 0 || w.LabelInvalidations == 0 || w.LabelKeeps+w.LabelInvalidations > steps {
		t.Errorf("keeps=%d invalidations=%d over %d mutations: want both, at most one per mutation", w.LabelKeeps, w.LabelInvalidations, steps)
	}
}

// TestKillMidChurnDifferential: an engine killed in the middle of a
// mutation churn, with a snapshot taken partway, recovers — snapshot plus
// WAL replay — to the mirror, every algorithm exact on it and the segment
// tables equal to a rebuild.
func TestKillMidChurnDifferential(t *testing.T) {
	m := newModel(t, 20260808, rdb.Options{}, Options{DataDir: t.TempDir()})
	m.load(modelGraph(graph.Random(24, 70, m.rnd.Int63()), m.rnd, 9))
	m.buildSeg(6)
	m.snapshot()
	m.churn(120, 6, func(b int) {
		if b == 8 { // later batches form the replay suffix
			m.snapshot()
		}
	})
	m.kill()
	if m.logged.Batches == 0 {
		t.Fatal("the kill replayed no WAL suffix")
	}
	m.buildOracle(4)
	m.query(m.draw(12))
	m.sameAsRebuild()
}

// TestLoadRetiresSnapshots: a durable load replaces the graph the newest
// snapshot holds, so a kill after it and before the next snapshot finds no
// snapshot — never the previous graph with the new graph's batches replayed
// over it — and the next snapshot recovers the new graph.
func TestLoadRetiresSnapshots(t *testing.T) {
	m := newModel(t, 20261019, rdb.Options{}, Options{DataDir: t.TempDir()})
	m.load(modelGraph(graph.Random(20, 50, m.rnd.Int63()), m.rnd, 9))
	g := modelGraph(graph.Random(30, 80, m.rnd.Int63()), m.rnd, 9)
	err := m.e.LoadGraph(g)
	m.mirror, m.ix, m.iso = g.Clone(), modelIndexes{}, -1
	m.after("load", fmt.Sprintf("load(%d nodes, %d edges) without a snapshot", g.N, g.M()), err)
	// Node 30 is modelGraph's isolated node: the three pairs are new edges,
	// and out of the first graph's range.
	m.apply(Mutation{Op: MutInsert, From: 30, To: 28, Weight: 2}, Mutation{Op: MutInsert, From: 30, To: 29, Weight: 3},
		Mutation{Op: MutInsert, From: 29, To: 30, Weight: 4})
	if e, err := OpenFromSnapshot(m.openDB(), m.opts); !errors.Is(err, ErrNoSnapshot) {
		if err == nil {
			err = fmt.Errorf("hydrated %d nodes and %d edges", e.Nodes(), e.Edges())
			e.Close()
		}
		m.fatalf("kill after a load and a batch: %v, want ErrNoSnapshot", err)
	}
	m.snapshot()
	m.mutate(3)
	m.kill()
	m.query(m.draw(4))
}

// TestMutationRace runs one batch beside exact and approximate readers:
// every in-flight answer holds on the pre- or post-batch graph, and after
// the one version bump every answer is the post-batch graph's, the oracle
// refusing until rebuilt.
func TestMutationRace(t *testing.T) {
	m := newModel(t, 19, rdb.Options{}, Options{})
	m.algs = []Algorithm{AlgBSDJ, AlgBSEG}
	m.load(graph.Power(150, 3, 77))
	m.buildSeg(6)
	m.buildOracle(3)
	del, upd := m.mirror.Edges[10], m.mirror.Edges[40]
	pairs := graph.RandomQueries(m.mirror, 10, 19)
	v0 := m.e.GraphVersion()
	m.beside(6, 20, func(w, i int) error {
		q := pairs[(w+i)%len(pairs)]
		if w < 4 {
			return m.read(m.algs[i%2], q[0], q[1])
		}
		var iv Interval
		var err error
		for _, g := range m.window(func() { iv, err = m.e.DistanceInterval(context.Background(), q[0], q[1]) }) {
			// A mutation kills the oracle: the one legitimate refusal.
			if err != nil && strings.Contains(err.Error(), "BuildOracle") || err == nil && intervalErr(iv, graph.MDJ(g, q[0], q[1])) == nil {
				return nil
			}
		}
		return fmt.Errorf("interval s=%d t=%d: [%d, %d] (%v) brackets neither graph", q[0], q[1], iv.Lower, iv.Upper, err)
	}, func(func() bool) {
		m.apply(Mutation{Op: MutInsert, From: 3, To: 120, Weight: 1},
			Mutation{Op: MutDelete, From: del.From, To: del.To},
			Mutation{Op: MutUpdate, From: upd.From, To: upd.To, Weight: upd.Weight + 30})
	})
	if v := m.e.GraphVersion(); v != v0+1 {
		t.Errorf("the batch must bump the version exactly once: %d -> %d", v0, v)
	}
	m.query(pairs) // cache hits keyed to the new version are post-state too
	m.buildOracle(3)
	m.query(pairs[:4])
}

// TestParallelMixedUnderMutations is the differential stress test: readers
// of every algorithm family query while a writer toggles a shortcut, and
// every answer must hold on a graph whose lifetime overlapped the query.
// Its second input is the sustained-load profile a served engine sees:
// every batch also re-weights an edge, and the engine is durable, so each
// batch is appended to the WAL and fsynced before it applies.
func TestParallelMixedUnderMutations(t *testing.T) {
	t.Run("memory", func(t *testing.T) { mixedUnderMutations(t, Options{}) })
	t.Run("durable+updates", func(t *testing.T) { mixedUnderMutations(t, Options{DataDir: t.TempDir()}) })
}

func mixedUnderMutations(t *testing.T, opts Options) {
	const n = 40
	// A ring with chords: every node reaches every other, and (0, 20) —
	// absent from it — is a real shortcut when the writer inserts it.
	var ring []graph.Edge
	for i := int64(0); i < n; i++ {
		ring = append(ring, graph.Edge{From: i, To: (i + 1) % n, Weight: 1 + i%7},
			graph.Edge{From: i, To: (i + 7) % n, Weight: 5 + i%11})
	}
	g, err := graph.New(n, ring)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(t, 1000, rdb.Options{}, opts)
	m.load(g)
	m.buildSeg(6)
	algs := []Algorithm{AlgDJ, AlgBDJ, AlgBSDJ, AlgBBFS, AlgBSEG, AlgAuto}
	m.beside(5, 8, func(w, i int) error {
		rnd := rand.New(rand.NewSource(int64(1000 + 100*w + i)))
		return m.read(algs[(w+i)%len(algs)], rnd.Int63n(n), rnd.Int63n(n))
	}, func(done func() bool) {
		for i := 0; i == 0 || !done(); {
			m.mu.Lock()
			full := len(m.states) > 64
			m.mu.Unlock()
			if full { // keep the MDJ window small
				time.Sleep(time.Millisecond)
				continue
			}
			batch := []Mutation{{Op: MutInsert, From: 0, To: 20, Weight: int64(1 + i%5)}}
			if i%2 == 1 {
				batch[0] = Mutation{Op: MutDelete, From: 0, To: 20}
			}
			if opts.DataDir != "" { // walk the ring: edge (u, u+1) takes a new weight
				u := int64(i) % n
				batch = append(batch, Mutation{Op: MutUpdate, From: u, To: (u + 1) % n, Weight: int64(1 + (i+3)%7)})
			}
			m.apply(batch...)
			i++
		}
	})
	if g := m.e.ConcurrencyStats().Gate; g.SharedAdmits == 0 || g.ExclusiveAdmits == 0 {
		t.Errorf("gate admitted %d shared and %d exclusive: want readers and writers both", g.SharedAdmits, g.ExclusiveAdmits)
	}
	if wal := m.e.DurabilityStats().WAL; opts.DataDir != "" && (wal.Appends == 0 || wal.Syncs == 0) {
		t.Errorf("durable run logged %d appends, %d fsyncs", wal.Appends, wal.Syncs)
	}
}
