package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
)

// The x-axes. The paper's Power and Random graphs run to 100k–500k nodes;
// the defaults are a tenth to a hundredth of that, times Config.Scale.

func power(bases ...int64) []Dataset {
	return sized(bases, func(n, seed int64) *graph.Graph { return graph.Power(n, 3, seed) })
}

func random(bases ...int64) []Dataset {
	return sized(bases, func(n, seed int64) *graph.Graph { return graph.RandomDegree(n, 3, seed) })
}

func sized(bases []int64, gen func(n, seed int64) *graph.Graph) []Dataset {
	var out []Dataset
	for _, base := range bases {
		out = append(out, Dataset{Gen: func(c Config) *graph.Graph { return gen(c.scale(base), c.Seed) }})
	}
	return out
}

// liveJournal takes fractions of the real graph's size.
func liveJournal(fracs ...float64) []Dataset {
	var out []Dataset
	for _, frac := range fracs {
		out = append(out, Dataset{Gen: func(c Config) *graph.Graph { return graph.LiveJournalLike(frac*c.factor(), c.Seed) }})
	}
	return out
}

var (
	// powerSizes is the Table 2 / Fig 6 axis, smallPower the Fig 7(c) / 8 /
	// 9 one, randomSizes that of Fig 7(b) and Table 3.
	powerSizes  = power(2000, 4000, 6000, 8000, 10000)
	smallPower  = power(1000, 2000, 3000, 4000, 5000)
	randomSizes = random(10000, 20000, 30000, 40000)
	// realLike are the two real-dataset analogs of Fig 7(d) and 9(b)/(d);
	// GoogleWeb's skewed degrees make it the more lthd-sensitive.
	realLike = []Dataset{
		{"GoogleWeb~", func(c Config) *graph.Graph { return graph.GoogleWebLike(0.004*c.factor(), c.Seed) }},
		{"DBLP~", func(c Config) *graph.Graph { return graph.DBLPLike(0.01*c.factor(), c.Seed) }},
	}
)

// The columns.

func alg(a core.Algorithm) Column { return Column{Name: a.String(), Alg: a} }

func bseg(lthd int64) Column {
	return Column{Name: fmt.Sprintf("BSEG(%d)", lthd), Lthd: lthd, Alg: core.AlgBSEG}
}

// with returns the columns with one more setting applied to each.
func with(set func(*Column), cols ...Column) []Column {
	for i := range cols {
		set(&cols[i])
	}
	return cols
}

func postgres(c *Column) { c.DB.Profile = rdb.ProfilePostgreSQL9 }

// lthds is a SegTable-threshold axis: a build per value, then the pairs
// under a (0: the build alone).
func lthds(a core.Algorithm, values ...int64) []Column {
	var out []Column
	for _, l := range values {
		out = append(out, Column{Name: fmt.Sprintf("lthd=%d", l), Lthd: l, Alg: a})
	}
	return out
}

// pools is a buffer-size axis over a file-backed database with a simulated
// per-page latency, so a miss costs something the time cell can show.
func pools(tag string, a core.Algorithm, pages ...int) []Column {
	var out []Column
	for _, p := range pages {
		out = append(out, Column{
			Name: fmt.Sprint(p), Lthd: 3, Alg: a,
			DB: rdb.Options{Path: tag, BufferPoolPages: p, SimulatedIOLatency: 15 * time.Microsecond},
		})
	}
	return out
}

// sqlLevels is the NSQL (window function + MERGE) vs TSQL axis.
func sqlLevels(lthd int64, a core.Algorithm) []Column {
	return []Column{
		{Name: "NSQL", Lthd: lthd, Alg: a},
		{Name: "TSQL", Lthd: lthd, Alg: a, Core: core.Options{TraditionalSQL: true}},
	}
}

// strategies is the physical-design axis of Fig 8(c), over base's build and
// algorithm.
func strategies(base Column) []Column {
	out := []Column{base, base, base}
	out[0].Name, out[0].Core.Strategy = "NoIndex", core.NoIndex
	out[1].Name, out[1].Core.Strategy = "Index", core.SecondaryIndex
	out[2].Name, out[2].Core.Strategy = "CluIndex", core.ClusteredIndex
	return out
}

var timeOnly = []Cell{{"", Time}}

// Figures is the spec table: every table and figure of §5, in the paper's
// order, then the two ablations of §4.1's design choices.
var Figures = []Figure{
	{ID: "table2", Name: "Table 2", Section: "§5.2", RowHead: "|V|",
		Title:   "Exps (# expansions) and Time (ms/query) on Power graphs",
		Data:    powerSizes,
		Columns: []Column{{Name: "DJ", Alg: core.AlgDJ, Slow: true}, alg(core.AlgBDJ), alg(core.AlgBSDJ)},
		Cells:   []Cell{{"Exps", Expansions}, {"Time", Time}}},
	{ID: "fig6a", Name: "Fig 6(a)", Section: "§5.2", RowHead: "|V|",
		Title:   "Query time (ms) vs graph scale, Power graphs, BDJ vs BSDJ",
		Data:    powerSizes,
		Columns: []Column{alg(core.AlgBDJ), alg(core.AlgBSDJ)},
		Cells:   timeOnly},
	{ID: "fig6b", Name: "Fig 6(b)", Section: "§5.2", RowHead: "|V|",
		Title:   "BSDJ query time (ms) by phase: path expansion, statistics collection, full path recovery; Power graphs",
		Data:    powerSizes,
		Columns: []Column{{Alg: core.AlgBSDJ}},
		Cells:   []Cell{{"PE", PE}, {"SC", SC}, {"FPR", FPR}}},
	{ID: "fig6c", Name: "Fig 6(c)", Section: "§5.2", RowHead: "|V|",
		Title:   "BSDJ query time (ms) by operator (separate statements), Power graphs",
		Data:    powerSizes,
		Columns: []Column{{Alg: core.AlgBSDJ, Core: core.Options{SeparateOperators: true}}},
		Cells:   []Cell{{"F-operator", FOp}, {"E-operator", EOp}, {"M-operator", MOp}}},
	{ID: "fig6d", Name: "Fig 6(d)", Section: "§5.2", RowHead: "|V|",
		Title:   "BSDJ query time (ms): NSQL (window+MERGE) vs TSQL, Power graphs",
		Data:    powerSizes,
		Columns: sqlLevels(0, core.AlgBSDJ),
		Cells:   timeOnly},
	{ID: "fig7a", Name: "Fig 7(a)", Section: "§5.2", RowHead: "|V|",
		Title:   "Query time (ms) on LiveJournal-like graphs (scaled)",
		Data:    liveJournal(0.002, 0.004, 0.006, 0.008),
		Columns: []Column{alg(core.AlgBSDJ), alg(core.AlgBBFS), bseg(3)},
		Cells:   timeOnly},
	{ID: "fig7b", Name: "Fig 7(b)", Section: "§5.2", RowHead: "|V|",
		Title:   "Query time (ms) on Random graphs (avg degree 3)",
		Data:    randomSizes,
		Columns: []Column{alg(core.AlgBBFS), alg(core.AlgBSDJ), bseg(3), bseg(5), bseg(7)},
		Cells:   timeOnly},
	{ID: "table3", Name: "Table 3", Section: "§5.2", RowHead: "|V|",
		Title:   "Time (ms), Exps and Vst (visited nodes) on Random graphs, BSEG at lthd 5",
		Data:    randomSizes,
		Columns: []Column{alg(core.AlgBSDJ), alg(core.AlgBBFS), {Name: "BSEG", Lthd: 5, Alg: core.AlgBSEG}},
		Cells:   []Cell{{"Time", Time}, {"Exps", Expansions}, {"Vst", Visited}}},
	{ID: "fig7c", Name: "Fig 7(c)", Section: "§5.2", RowHead: "|V|",
		Title:   "BSEG query time (ms) vs lthd, Power graphs",
		Data:    smallPower,
		Columns: lthds(core.AlgBSEG, 10, 30, 40, 50),
		Cells:   timeOnly},
	{ID: "fig7d", Name: "Fig 7(d)", Section: "§5.2", RowHead: "dataset",
		Title:   "BSEG query time (ms) vs lthd, real-like graphs",
		Data:    realLike,
		Columns: lthds(core.AlgBSEG, 2, 4, 6, 8, 10),
		Cells:   timeOnly},
	{ID: "fig8a", Name: "Fig 8(a)", Section: "§5.2", RowHead: "|V|",
		Title:   "Query time (ms) on the PostgreSQL profile (window functions, MERGE emulated by UPDATE+INSERT), Power graphs",
		Data:    smallPower,
		Columns: with(postgres, alg(core.AlgBBFS), bseg(20)),
		Cells:   timeOnly},
	{ID: "fig8b", Name: "Fig 8(b)", Section: "§5.2", RowHead: "buffer pages", PerColumn: true,
		Title: "BSEG(3) query time (ms) vs buffer size (pages), LiveJournal-like, simulated disk",
		// Smaller than the other LiveJournal figures: every page miss pays
		// the simulated latency and the database is rebuilt per pool size.
		Data:    liveJournal(0.0015),
		Columns: pools("fig8b", core.AlgBSEG, 128, 256, 512, 1024, 2048),
		Cells:   []Cell{{"time", Time}, {"pool misses/query", Misses}}},
	{ID: "fig8c", Name: "Fig 8(c)", Section: "§5.2", RowHead: "|V|",
		Title:   "BSEG(20) query time (ms) by index strategy, Power graphs",
		Data:    smallPower,
		Columns: strategies(bseg(20)),
		Cells:   timeOnly},
	{ID: "fig8d", Name: "Fig 8(d)", Section: "§5.2", RowHead: "|V|",
		Title:   "Query time (ms): in-memory MDJ/MBDJ vs relational BSEG(20), Power graphs",
		Data:    smallPower,
		Columns: []Column{{Lthd: 20, Alg: core.AlgBSEG}},
		Cells:   []Cell{{"MDJ", MDJ}, {"BSEG(20)", Time}, {"MBDJ", MBDJ}}},
	{ID: "fig9a", Name: "Fig 9(a)", Section: "§5.3", RowHead: "|V|",
		Title:   "SegTable encoding number vs lthd, Power graphs",
		Data:    smallPower,
		Columns: lthds(0, 10, 20, 30, 40),
		Cells:   []Cell{{"", SegRows}}},
	{ID: "fig9b", Name: "Fig 9(b)", Section: "§5.3", RowHead: "dataset",
		Title:   "SegTable encoding number vs lthd, real-like graphs",
		Data:    realLike,
		Columns: lthds(0, 2, 4, 6, 8, 10),
		Cells:   []Cell{{"", SegRows}}},
	{ID: "fig9c", Name: "Fig 9(c)", Section: "§5.3", RowHead: "|V|",
		Title:   "SegTable construction time (ms) vs lthd, Power graphs",
		Data:    smallPower,
		Columns: lthds(0, 10, 20, 30, 40),
		Cells:   []Cell{{"", BuildTime}}},
	{ID: "fig9d", Name: "Fig 9(d)", Section: "§5.3", RowHead: "dataset",
		Title:   "SegTable construction time (ms) vs lthd, real-like graphs",
		Data:    realLike,
		Columns: lthds(0, 2, 4, 6, 8),
		Cells:   []Cell{{"", BuildTime}}},
	{ID: "fig9e", Name: "Fig 9(e)", Section: "§5.3", RowHead: "|V|",
		Title:   "SegTable construction time (ms) vs lthd on the PostgreSQL profile (no MERGE), Power graphs",
		Data:    smallPower[:3],
		Columns: with(postgres, lthds(0, 10, 20, 30)...),
		Cells:   []Cell{{"", BuildTime}}},
	{ID: "fig9f", Name: "Fig 9(f)", Section: "§5.3", RowHead: "|V|",
		Title:   "SegTable construction time (ms), NSQL vs TSQL (lthd=20), Power graphs",
		Data:    smallPower,
		Columns: sqlLevels(20, 0),
		Cells:   []Cell{{"", BuildTime}}},
	{ID: "fig9g", Name: "Fig 9(g)", Section: "§5.3", RowHead: "buffer pages", PerColumn: true,
		Title:   "SegTable(3) construction time (ms) vs buffer size (pages), LiveJournal-like, simulated disk",
		Data:    liveJournal(0.001),
		Columns: pools("fig9g", 0, 128, 256, 512, 1024),
		Cells:   []Cell{{"time", BuildTime}, {"pool misses", BuildMisses}}},
	{ID: "fig9h", Name: "Fig 9(h)", Section: "§5.3", RowHead: "|V|",
		Title:   "SegTable(3) construction time (ms) vs graph scale, LiveJournal-like",
		Data:    liveJournal(0.001, 0.002, 0.003, 0.004),
		Columns: []Column{{Lthd: 3}},
		Cells:   []Cell{{"time", BuildTime}, {"encoding number", SegRows}}},
	{ID: "ablation-pruning", Name: "Ablation", Section: "§4.1", RowHead: "|V|",
		Title:   "BSDJ with/without Theorem-1 pruning, Random graphs",
		Data:    randomSizes[:2],
		Columns: []Column{{Name: "pruned", Alg: core.AlgBSDJ}, {Name: "unpruned", Alg: core.AlgBSDJ, Core: core.Options{DisablePruning: true}}},
		Cells:   []Cell{{"time", Time}, {"visited", Visited}}},
	{ID: "ablation-direction", Name: "Ablation", Section: "§4.1", RowHead: "|V|",
		Title:   "BSDJ direction policy: fewer-frontier vs strict alternation, LiveJournal-like",
		Data:    liveJournal(0.004),
		Columns: []Column{{Name: "fewer-frontier", Alg: core.AlgBSDJ}, {Name: "alternate", Alg: core.AlgBSDJ, Core: core.Options{AlternateDirections: true}}},
		Cells:   []Cell{{"time", Time}, {"exps", Expansions}}},
}
