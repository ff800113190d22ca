package sweep

import (
	"fmt"
	"strings"

	"repro/internal/fem"
	"repro/internal/table"
)

// IndexStrategy is the physical design axis of Fig 8(c): how the relations
// that follow it — the edges, the per-query working set and every index
// relation built over them — are stored. The rest is always clustered.
type IndexStrategy int

const (
	// ClusteredIndex stores each table as a B+tree on its key (CluIndex).
	ClusteredIndex IndexStrategy = iota
	// SecondaryIndex keeps heaps plus non-clustered B+tree indexes (Index).
	SecondaryIndex
	// NoIndex keeps bare heaps; every probe is a scan.
	NoIndex
)

func (s IndexStrategy) String() string {
	switch s {
	case ClusteredIndex:
		return "CluIndex"
	case SecondaryIndex:
		return "Index"
	case NoIndex:
		return "NoIndex"
	}
	return fmt.Sprintf("IndexStrategy(%d)", int(s))
}

// The relations the engine owns (paper §2.1, §3.3, §4.1, §4.2, and the
// oracle, label and mutation subsystems). The packages that query one
// alias its name from here.
const (
	TblNodes   = "TNodes"
	TblEdges   = "TEdges"
	TblVisited = "TVisited"
	TblExpand  = "TExpand"  // materialized E-operator output (non-fused paths)
	TblExpCost = "TExpCost" // per-node minimal cost, below the window level
	TblOutSegs = "TOutSegs"
	// TblWork holds one row per (source, reached node): the tentative
	// distance, the neighbour it came from (predecessor on the path from
	// src in a forward sweep, successor toward src in a backward one) and
	// the flag f in internal/fem's sign protocol: 0 candidate, 1 not a
	// candidate or pruned, n >= 2 stamped by round n-1 (fem.Stamp).
	TblWork     = "TSeg"
	TblSegMaint = "TSegMaint" // a TOutSegs merge's staged source
	tblExpand   = "TSegExpand"
	tblExpCost  = "TSegExpCost"
	tblDeg      = "TDeg"
	tblDegIn    = "TDegIn"
	TblMutTouch = "TMutTouch" // the touched (fid, tid) pairs of a decremental repair
	TblMutSrc   = "TMutSrc"   // the seed nodes of its bounded sweep
	TblLandmark = "TLandmark"
	TblLabelOut = "TLabelOut"
	TblLabelIn  = "TLabelIn"
	TblLblTo    = "TLblTo"
	TblLblFrom  = "TLblFrom"
)

// Owner says what a relation is dropped and created with.
type Owner int

const (
	// Graph relations are created by a load or a hydration.
	Graph Owner = iota
	// Scratch is a read's working set. No table carries these names: each
	// read in flight leases a pooled <name>_q<i> instance.
	Scratch
	// Seg, Oracle and Labels relations are dropped and created by a build
	// (or a hydration) of that index.
	Seg
	Oracle
	Labels
	// Work relations are created by the first sweep, ranking or repair that
	// misses them and dropped by the next load.
	Work
)

func (o Owner) String() string {
	return [...]string{"graph", "scratch", "SegTable", "oracle", "labels", "on demand"}[o]
}

// Relation declares one relation: every DDL statement, drop list, bulk
// load and snapshot dump of it derives from this.
type Relation struct {
	Name string
	// Cols lists the columns, all INT, comma-separated; Key those of the
	// key ("" = a bare heap under every design), unique or not.
	Cols, Key string
	Unique    bool
	// PK declares the key as PRIMARY KEY inside CREATE TABLE, not with a
	// CREATE CLUSTERED INDEX after it (which allocates a heap page only to
	// free it again): the paper's §2.1 / §3.3 tables are written that way.
	PK bool
	// Also lists the columns of a secondary index under every design that
	// has indexes, named after its leading column.
	Also string
	// Follows says the storage follows the engine's IndexStrategy;
	// otherwise the relation is clustered on Key under every strategy
	// ("we build indices over the relational tables for ... intermediate
	// results", §4.2).
	Follows bool
	// BelowMerge relations stage a MERGE's source and exist only at the
	// SQL levels without the fused statement.
	BelowMerge bool
	Owner      Owner
	// Snapshot says a snapshot of a live Owner dumps the rows and a
	// hydration loads them back. A relation without it is transient: DDL
	// creates it TEMPORARY.
	Snapshot bool
}

// Relations is the schema, in creation and snapshot order.
var Relations = []Relation{
	// The node order: the internal id every other relation stores, and the
	// caller's (external) id of that node.
	{Name: TblNodes, Cols: "nid, ext", Key: "nid", Unique: true, PK: true, Owner: Graph, Snapshot: true},
	// One row per edge pair, at its effective (cheapest) cost: loads collapse
	// parallel edges and every mutation writes the pair's new cost, so
	// writers keep (fid, tid) unique under every design.
	{Name: TblEdges, Cols: "fid, tid, cost", Key: "fid, tid", Unique: true, Also: "tid", Follows: true, Owner: Graph, Snapshot: true},
	// §4.1: d2s/p2s/f carry the forward search's state, d2t/p2t/b the backward one's.
	{Name: TblVisited, Cols: "nid, d2s, p2s, f, d2t, p2t, b", Key: "nid", Unique: true, PK: true, Follows: true, Owner: Scratch},
	{Name: TblExpand, Cols: "nid, par, cost", Key: "nid", Unique: true, PK: true, Follows: true, Owner: Scratch},
	{Name: TblExpCost, Cols: "nid, cost", Key: "nid", Unique: true, PK: true, Follows: true, Owner: Scratch},
	// Definition 4's SegTable: (fid, tid) is unique, kept so by every writer
	// merging on the pair. The forward search joins on fid, the key's lead;
	// the backward one on tid, through an index whose (tid, fid, cost)
	// entries hold every column it reads, so it reads no row (the paper's
	// incoming-segment table as an access path). pid, the predecessor of
	// tid, is read by path unfolding only.
	{Name: TblOutSegs, Cols: "fid, tid, pid, cost", Key: "fid, tid", Unique: true, Also: "tid, fid, cost", Follows: true, Owner: Seg, Snapshot: true},
	{Name: TblWork, Cols: "src, nid, dist, par, f", Key: "src, nid", Unique: true, Owner: Seg},
	{Name: TblSegMaint, Cols: "fid, tid, pid, cost", Key: "fid, tid", Unique: true, BelowMerge: true, Owner: Seg},
	{Name: tblExpand, Cols: "src, nid, par, cost", Key: "src, nid", Unique: true, BelowMerge: true, Owner: Work},
	{Name: tblExpCost, Cols: "src, nid, cost", Key: "src, nid", Unique: true, BelowMerge: true, Owner: Work},
	{Name: tblDeg, Cols: "nid, deg", Key: "nid", Unique: true, Owner: Work},
	{Name: tblDegIn, Cols: "nid, deg", Key: "nid", Unique: true, Owner: Work},
	{Name: TblMutTouch, Cols: "fid, tid", Key: "fid, tid", Unique: true, Owner: Work},
	{Name: TblMutSrc, Cols: "nid", Owner: Work},
	{Name: TblLandmark, Cols: "lid, nid, dout, din", Key: "nid, lid", Unique: true, Follows: true, Owner: Oracle, Snapshot: true},
	{Name: TblLabelOut, Cols: "nid, hub, dist", Key: "nid, hub", Unique: true, Follows: true, Owner: Labels, Snapshot: true},
	{Name: TblLabelIn, Cols: "nid, hub, dist", Key: "nid, hub", Unique: true, Follows: true, Owner: Labels, Snapshot: true},
	{Name: TblLblTo, Cols: "nid, dist", Key: "nid", Unique: true, Owner: Labels},
	{Name: TblLblFrom, Cols: "nid, dist", Key: "nid", Unique: true, Owner: Labels},
}

// Rel returns the declaration of name, which must be declared.
func Rel(name string) Relation {
	for _, r := range Relations {
		if r.Name == name {
			return r
		}
	}
	panic("sweep: relation " + name + " is not declared")
}

// Owned returns a copy of owner o's relations, in declaration order.
func Owned(o Owner) []Relation {
	var out []Relation
	for _, r := range Relations {
		if r.Owner == o {
			out = append(out, r)
		}
	}
	return out
}

// Width is the number of columns.
func (r Relation) Width() int { return strings.Count(r.Cols, ",") + 1 }

// DDL renders the statements that create r under design s: the table, then
// its indexes, each named after the table and the column (or "key", for a
// composite one) it is on. Under SecondaryIndex the key's leading column
// is indexed; under NoIndex nothing is. A relation no snapshot dumps is a
// TEMPORARY table: its pages, its indexes' included, live in the temp
// space, so the database file holds only what a snapshot dumps.
func (r Relation) DDL(s IndexStrategy) []string {
	if !r.Follows {
		s = ClusteredIndex
	}
	create := "CREATE TABLE "
	if !r.Snapshot {
		create = "CREATE TEMPORARY TABLE "
	}
	cols := strings.ReplaceAll(r.Cols, ",", " INT,") + " INT"
	if r.PK && s == ClusteredIndex {
		return []string{create + r.Name + " (" + strings.Replace(cols, " INT", " INT PRIMARY KEY", 1) + ")"}
	}
	ddl := []string{create + r.Name + " (" + cols + ")"}
	index := func(kind, suffix, on string) {
		ddl = append(ddl, "CREATE "+kind+"INDEX "+strings.ToLower(r.Name)+"_"+suffix+" ON "+r.Name+" ("+on+")")
	}
	if r.Key == "" || s == NoIndex {
		return ddl
	}
	lead, _, composite := strings.Cut(r.Key, ",")
	unique := ""
	if r.Unique {
		unique = "UNIQUE "
	}
	if s == ClusteredIndex {
		suffix := lead
		if composite {
			suffix = "key"
		}
		index(unique+"CLUSTERED ", suffix, r.Key)
	} else {
		if composite {
			unique = "" // the leading column alone repeats
		}
		index(unique, lead, lead)
	}
	if r.Also != "" {
		also, _, _ := strings.Cut(r.Also, ",")
		index("", also, r.Also)
	}
	return ddl
}

// Schema creates and drops declared relations in one catalog, under one
// physical design and SQL level, through its owner's statement function.
type Schema struct {
	Catalog  *table.Catalog
	Strategy IndexStrategy
	Level    fem.Level
	Exec     func(q string) error
}

// Drop drops those of rels that exist.
func (s Schema) Drop(rels ...Relation) error {
	for _, r := range rels {
		if _, ok := s.Catalog.Get(r.Name); ok {
			if err := s.Exec("DROP TABLE " + r.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Create creates those of rels that are missing, and that exist at the
// schema's SQL level.
func (s Schema) Create(rels ...Relation) error {
	for _, r := range rels {
		if r.BelowMerge && s.Level == fem.MergeWindow {
			continue
		}
		if _, ok := s.Catalog.Get(r.Name); ok {
			continue
		}
		for _, q := range r.DDL(s.Strategy) {
			if err := s.Exec(q); err != nil {
				return err
			}
		}
	}
	return nil
}
