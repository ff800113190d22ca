package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
)

// claim is one qualitative statement of the paper's §3–§5, as a relation
// between one deterministic counter of neighbouring columns, measured on
// the fixed datasets of claimData. No row reads a duration.
type claim struct {
	Section  string
	Sentence string
	// On names the datasets the relation is asserted on.
	On      []string
	Counter Metric
	Cols    []Column
	// Want holds one of < = > per neighbouring pair of Cols, left to right.
	Want string
	// DoesNotReproduce marks a row whose Sentence the counters contradict.
	// Want then pins the relation observed, so a change that makes the
	// claim reproduce — or moves it further off — is noticed; the row is
	// reported in README as not holding and is never tuned until it does.
	DoesNotReproduce bool
}

var (
	dj       = Column{Name: "DJ", Alg: core.AlgDJ}
	bdj      = alg(core.AlgBDJ)
	bsdj     = alg(core.AlgBSDJ)
	unpruned = Column{Name: "unpruned", Alg: core.AlgBSDJ, Core: core.Options{DisablePruning: true}}
	// windowOnly is the middle SQL level: window functions, MERGE emulated.
	windowOnly = Column{Name: "window-only", Alg: core.AlgBSDJ, DB: rdb.Options{Profile: rdb.ProfilePostgreSQL9}}
	tsql       = Column{Name: "TSQL", Alg: core.AlgBSDJ, Core: core.Options{TraditionalSQL: true}}
	alternate  = Column{Name: "alternate", Alg: core.AlgBSDJ, Core: core.Options{AlternateDirections: true}}
	smallPool  = Column{Name: "64-page pool", Alg: core.AlgBSDJ, DB: rdb.Options{BufferPoolPages: 64}}
	bsegByLthd = []Column{bsdj, bseg(3), bseg(5), bseg(10), bseg(20)}
	both       = []string{"Power", "Random"}
)

var claims = []claim{
	{Section: "§5.2 Table 2", Sentence: "set-at-a-time search needs fewer iterations than node-at-a-time, bi-directional fewer than single-directional",
		On: both, Counter: Iterations, Cols: []Column{dj, bdj, bsdj}, Want: ">>"},
	{Section: "§5.2 Table 2", Sentence: "and so issues fewer SQL statements",
		On: both, Counter: Statements, Cols: []Column{dj, bdj, bsdj}, Want: ">>"},
	{Section: "§4.1", Sentence: "bi-directional search shrinks the search space",
		On: both, Counter: Visited, Cols: []Column{dj, bdj}, Want: ">"},
	{Section: "§4.3, Fig 7(c)", Sentence: "BSEG needs fewer iterations than BSDJ, the fewer the larger lthd",
		On: both, Counter: Iterations, Cols: bsegByLthd, Want: ">>>>"},
	{Section: "§5.3 Fig 9(a)", Sentence: "which the SegTable pays for in rows",
		On: both, Counter: SegRows, Cols: bsegByLthd[1:], Want: "<<<"},
	{Section: "§4.3, Table 3", Sentence: "BSEG pays for its fewer iterations in visited rows, more so as lthd grows",
		On: []string{"Power"}, Counter: Visited, Cols: bsegByLthd, Want: ">>><", DoesNotReproduce: true},
	{Section: "§4.3, Table 3", Sentence: "BSEG pays for its fewer iterations in visited rows, more so as lthd grows",
		On: []string{"Random"}, Counter: Visited, Cols: bsegByLthd, Want: "><><", DoesNotReproduce: true},
	{Section: "§4.1 Theorem 1", Sentence: "pruning shrinks the visited set",
		On: both, Counter: Visited, Cols: []Column{bsdj, unpruned}, Want: "<"},
	{Section: "§4.1 Theorem 1", Sentence: "and the tuples the M-operator writes",
		On: both, Counter: Affected, Cols: []Column{bsdj, unpruned}, Want: "<"},
	{Section: "§4.1", Sentence: "expanding the direction with the smaller frontier takes fewer iterations than strict alternation",
		On: both, Counter: Iterations, Cols: []Column{bsdj, alternate}, Want: ">", DoesNotReproduce: true},
	{Section: "§4.1", Sentence: "and visits fewer rows",
		On: both, Counter: Visited, Cols: []Column{bsdj, alternate}, Want: ">", DoesNotReproduce: true},
	{Section: "§3.3, Fig 6(d)", Sentence: "window function and MERGE simplify the expression: fewer statements than with the window function alone, fewer again than traditional SQL",
		On: both, Counter: Statements, Cols: []Column{bsdj, windowOnly, tsql}, Want: "<<"},
	{Section: "§3.3, Fig 6(d)", Sentence: "and improve the performance: fewer tuples affected",
		On: both, Counter: Affected, Cols: []Column{bsdj, windowOnly, tsql}, Want: "<<"},
	{Section: "§5.3 Fig 9(f)", Sentence: "SegTable construction issues fewer statements with the new SQL features",
		On: both, Counter: BuildStatements, Cols: sqlLevels(20, 0), Want: "<"},
	{Section: "§5.3 Fig 9(f)", Sentence: "in the same number of iterations",
		On: both, Counter: BuildIterations, Cols: sqlLevels(20, 0), Want: "="},
	{Section: "§5.2 Fig 8(b)", Sentence: "a smaller buffer raises physical reads",
		On: both, Counter: Reads, Cols: []Column{bsdj, smallPool}, Want: "<"},
	{Section: "§5.2 Fig 8(b)", Sentence: "and not logical ones",
		On: both, Counter: Fetches, Cols: []Column{bsdj, smallPool}, Want: "="},
	{Section: "§5.2 Fig 8(c)", Sentence: "BSEG(20) fetches most pages with no index, fewer with a secondary index, fewest with the clustered one",
		On: []string{"Random"}, Counter: Fetches, Cols: strategies(bseg(20)), Want: ">>"},
	{Section: "§5.2 Fig 8(c)", Sentence: "BSEG(20) fetches most pages with no index, fewer with a secondary index, fewest with the clustered one",
		On: []string{"Power"}, Counter: Fetches, Cols: strategies(bseg(20)), Want: "<>", DoesNotReproduce: true},
	{Section: "§5.2 Fig 8(c)", Sentence: "and BSDJ orders the same way",
		On: both, Counter: Fetches, Cols: strategies(bsdj), Want: "><", DoesNotReproduce: true},
}

// counterNames are the README's words for the counters the claims read.
var counterNames = map[Metric]string{
	Iterations: "iterations", Statements: "statements", Visited: "visited rows", Affected: "tuples affected",
	Fetches: "page fetches", Reads: "physical reads", SegRows: "SegTable rows",
	BuildIterations: "build iterations", BuildStatements: "build statements",
}

// claimData builds the fixed datasets: 2000 nodes, average degree 3, eight
// pairs, everything seeded with 42.
func claimData(t *testing.T) map[string]*workload {
	out := map[string]*workload{}
	for name, g := range map[string]*graph.Graph{
		"Power":  graph.Power(2000, 3, 42),
		"Random": graph.RandomDegree(2000, 3, 42),
	} {
		w, err := newWorkload(g, graph.RandomQueries(g, 8, 42))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = w
	}
	return out
}

// sweepClaims measures every (dataset, column) the claims name, once each,
// and returns the counter values per claim and dataset.
func sweepClaims(t *testing.T, data map[string]*workload) [][][]int64 {
	memo := map[string]*measurement{}
	out := make([][][]int64, len(claims))
	for i, c := range claims {
		for _, ds := range c.On {
			vals := make([]int64, len(c.Cols))
			for k, col := range c.Cols {
				name := col.Name
				col.Name = "" // columns that differ in name alone are one measurement
				key := fmt.Sprintf("%s %+v", ds, col)
				if memo[key] == nil {
					m, err := data[ds].measure(Config{}, col)
					if err != nil {
						t.Fatalf("%s, %s: %v", ds, name, err)
					}
					memo[key] = m
				}
				vals[k] = memo[key].V[c.Counter]
			}
			out[i] = append(out[i], vals)
		}
	}
	return out
}

// holds reports whether vals satisfy want, one relation per neighbouring
// pair; '!' (differs) is what reversing '=' asks for.
func holds(vals []int64, want string) bool {
	for i, rel := range []byte(want) {
		a, b := vals[i], vals[i+1]
		if !(rel == '<' && a < b || rel == '>' && a > b || rel == '=' && a == b || rel == '!' && a != b) {
			return false
		}
	}
	return true
}

var reversed = strings.NewReplacer("<", ">", ">", "<", "=", "!")

// readmeRow renders a claim as its line of README's "Reproduction status"
// table.
func readmeRow(c claim, vals [][]int64) string {
	var names, sets []string
	for _, col := range c.Cols {
		names = append(names, col.Name)
	}
	for d, ds := range c.On {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s %d", ds, vals[d][0])
		for k := range c.Want {
			fmt.Fprintf(&sb, " %c %d", c.Want[k], vals[d][k+1])
		}
		sets = append(sets, sb.String())
	}
	status := "holds"
	if c.DoesNotReproduce {
		status = "**does not hold**"
	}
	return fmt.Sprintf("| %s | %s | %s of %s: %s | %s |", c.Section, c.Sentence,
		counterNames[c.Counter], strings.Join(names, ", "), strings.Join(sets, "; "), status)
}

// TestPaperClaims asserts the claims table, twice: the counters it reads
// must not differ between two sweeps, or a row could hold by accident.
func TestPaperClaims(t *testing.T) {
	data := claimData(t)
	first, second := sweepClaims(t, data), sweepClaims(t, data)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	reproduce := 0
	var table []string
	for i, c := range claims {
		if len(c.Want) != len(c.Cols)-1 || !c.Counter.Counter() {
			t.Fatalf("row %d (%s): malformed: %d relations over %d columns of metric %d", i, c.Section, len(c.Want), len(c.Cols), c.Counter)
		}
		if !c.DoesNotReproduce {
			reproduce++
		}
		for d, ds := range c.On {
			if fmt.Sprint(first[i][d]) != fmt.Sprint(second[i][d]) {
				t.Errorf("%s %q on %s: %s not deterministic: %v then %v", c.Section, c.Sentence, ds, counterNames[c.Counter], first[i][d], second[i][d])
			}
			if !holds(first[i][d], c.Want) {
				t.Errorf("%s %q on %s: %s %v do not satisfy %q", c.Section, c.Sentence, ds, counterNames[c.Counter], first[i][d], c.Want)
			}
		}
		table = append(table, readmeRow(c, first[i]))
	}
	if reproduce < 10 {
		t.Errorf("%d claims reproduce, want at least 10", reproduce)
	}
	for _, row := range table {
		if !strings.Contains(string(readme), row+"\n") {
			t.Errorf("README.md \"Reproduction status\" is stale; its rows should read:\n%s", strings.Join(table, "\n"))
			break
		}
	}

	// Every row must be able to fail: with each relation reversed it does.
	t.Run("reversed", func(t *testing.T) {
		for i, c := range claims {
			for d, ds := range c.On {
				if holds(first[i][d], reversed.Replace(c.Want)) {
					t.Errorf("%s %q on %s: %v also satisfy the reverse of %q", c.Section, c.Sentence, ds, first[i][d], c.Want)
				}
			}
		}
	})
}
