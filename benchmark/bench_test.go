package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
)

const specFile = "../BENCHMARK.json"

// smoke runs one workload at the scaled-down sizes, in this process.
func smoke(t *testing.T, workload string, trace int, spdbd string) *runResult {
	t.Helper()
	o := &options{workload: workload, seed: 42, trace: trace, phase: "run", smoke: true,
		workdir: t.TempDir(), spdbd: spdbd, clients: min(runtime.NumCPU(), clientCap)}
	res, err := runWorkload(context.Background(), o)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	if res.Failed != 0 || res.Metrics["fail_ratio"] != 0 {
		t.Fatalf("%s trace=%d: %d of %d answers wrong: %v", workload, trace, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// buildSpdbd compiles the server the serve_http workload drives.
func buildSpdbd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spdbd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/spdbd").CombinedOutput(); err != nil {
		t.Fatalf("build spdbd: %v\n%s", err, out)
	}
	return bin
}

// TestSpecContract checks BENCHMARK.json against the limits the benchmark
// driver enforces before it makes a single run.
func TestSpecContract(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, d := range sp.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s with unit s, better lower")
	}
	for _, d := range append(append([]metricDef{}, sp.EndToEnd...), sp.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not a valid unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range sp.PerLayer {
		use(d.Name)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if len(sp.Command) != 2 || sp.Command[0] != "bash" || sp.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v, want bash benchmark/run.sh", sp.Command)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", sp.Paths)
	}
	if info, err := os.Stat(specFile); err != nil || info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json must be at most 64 KiB")
	}
}

// TestSmoke runs every workload of BENCHMARK.json at the smoke sizes, untraced
// and traced, and checks that each run reports every metric the file names
// for it, and that every per-layer metric is measured by some workload.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	spdbd := ""
	if !testing.Short() {
		spdbd = buildSpdbd(t)
	}
	measured := map[string]bool{}
	for _, w := range sp.Workloads {
		if w.Name == "serve_http" && testing.Short() {
			t.Log("serve_http skipped under -short: it builds and boots spdbd")
			continue
		}
		for _, trace := range []int{0, 1} {
			res := smoke(t, w.Name, trace, spdbd)
			out, err := sp.project(res.Metrics, trace == 1)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if want := len(sp.defs(trace == 1)); len(out) != want {
				t.Errorf("%s trace=%d: %d metrics reported, BENCHMARK.json lists %d", w.Name, trace, len(out), want)
			}
			for name, m := range out {
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.Name, name)
				}
			}
			for name := range res.Metrics {
				measured[name] = true
			}
			if trace == 0 {
				for _, d := range sp.EndToEnd {
					if res.Metrics[d.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, res.Metrics[d.Name])
					}
				}
			}
		}
	}
	for _, d := range sp.PerLayer {
		if !measured[d.Name] && !(testing.Short() && strings.HasPrefix(d.Name, "spdbd.")) {
			t.Errorf("per-layer metric %s is named in BENCHMARK.json but no workload measures it", d.Name)
		}
	}
}

// TestCountsRepeat: with one client and one seed, the page and byte counts
// are a property of the program, so two runs must agree bit for bit.
func TestCountsRepeat(t *testing.T) {
	for _, w := range singleClient[:2] {
		a, b := smoke(t, w, 0, ""), smoke(t, w, 0, "")
		for _, name := range exactCounts {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", w, name, a.Metrics[name], b.Metrics[name])
			}
		}
	}
}

// TestMixHitShare replays serve_http's request list against an LRU cache of
// the server's size: from the second pass on, exactly the cold requests miss.
func TestMixHitShare(t *testing.T) {
	for _, sz := range []sizes{fullSizes, smokeSizes} {
		in, err := newInputs(sz.srvN, 42)
		if err != nil {
			t.Fatal(err)
		}
		m := in.mix(sz.srvHot, sz.srvCold, sz.srvRequests)
		seen := map[[2]int64]bool{}
		for _, p := range m.universe {
			if seen[p] {
				t.Fatalf("pair %v is in the universe twice", p)
			}
			seen[p] = true
		}
		var lru []int // most recent last
		for pass := 0; pass < 3; pass++ {
			misses := 0
			for _, r := range m.reqs {
				at := -1
				for i, x := range lru {
					if x == r {
						at = i
					}
				}
				if at >= 0 {
					lru = append(lru[:at], lru[at+1:]...)
				} else {
					misses++
					if len(lru) == sz.srvCache {
						lru = lru[1:]
					}
				}
				lru = append(lru, r)
			}
			if pass > 0 && misses != sz.srvCold {
				t.Errorf("%d requests, cache %d: pass %d misses %d, want the %d cold requests", sz.srvRequests, sz.srvCache, pass, misses, sz.srvCold)
			}
		}
	}
}

// TestSearchSpaceRanksQueries: the count the pair lists are stratified by
// must follow what the engine's searches cost, here the rows BSDJ leaves in
// TVisited.
func TestSearchSpaceRanksQueries(t *testing.T) {
	line, err := graph.New(5, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 3, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := searchSpace(line, 0, 3); got != 4 {
		t.Errorf("line 0->3: %d nodes touched, want 4", got)
	}
	if got := searchSpace(line, 0, 4); got != 5 {
		t.Errorf("line 0->4 (unreachable): %d nodes touched, want 5", got)
	}
	if got := searchSpace(line, 2, 2); got != 1 {
		t.Errorf("line 2->2: %d nodes touched, want 1", got)
	}

	e := &env{ctx: context.Background(), seed: 42}
	es, err := e.setupEngine(smokeSizes.hotN, repro.DBOptions{}, repro.EngineOptions{CacheSize: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer es.eng.Close()
	var want, got []float64
	for _, p := range graph.RandomQueries(es.in.base, 60, 7) {
		res, err := es.eng.Query(e.ctx, repro.QueryRequest{Source: p[0], Target: p[1], Alg: repro.AlgBSDJ})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, float64(res.Stats.VisitedRows))
		got = append(got, float64(searchSpace(es.in.base, p[0], p[1])))
	}
	if r := pearson(want, got); r < 0.95 {
		t.Errorf("searchSpace against BSDJ's visited rows: correlation %.3f, want >= 0.95", r)
	}
}

func pearson(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i] / float64(len(x))
		my += y[i] / float64(len(y))
	}
	var sxy, sxx, syy float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
		syy += (y[i] - my) * (y[i] - my)
	}
	return sxy / math.Sqrt(sxx*syy)
}

func TestCheckerCatchesWrongAnswers(t *testing.T) {
	g, err := graph.New(4, []graph.Edge{{From: 0, To: 1, Weight: 2}, {From: 1, To: 2, Weight: 3}, {From: 0, To: 2, Weight: 9}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		what  string
		t     int64
		found bool
		dist  int64
		path  []int64
		ok    bool
	}{
		{"right answer", 2, true, 5, []int64{0, 1, 2}, true},
		{"unreachable, rightly", 3, false, 0, nil, true},
		{"wrong distance", 2, true, 9, []int64{0, 2}, false},
		{"right distance, path of another length", 2, true, 5, []int64{0, 2}, false},
		{"path over a missing edge", 2, true, 5, []int64{0, 3, 2}, false},
		{"path ends elsewhere", 2, true, 5, []int64{0, 1}, false},
		{"found where no path exists", 3, true, 1, []int64{0, 3}, false},
		{"missed an existing path", 2, false, 0, nil, false},
	}
	for _, c := range cases {
		var ck checker
		ck.answer("test", 0, g, [2]int64{0, c.t}, core.QueryResult{Found: c.found, Distance: c.dist, Path: core.Path{Nodes: c.path}}, nil)
		if ok := ck.failed == 0; ok != c.ok {
			t.Errorf("%s: accepted=%v, want %v (%v)", c.what, ok, c.ok, ck.failures)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.08}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 130, 75, 100, 140, 70, 100, 125, 80, 100}
	cases := []struct {
		what string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same runs", base, base, lower, verdictUnchanged},
		{"5% slower, inside the bound", base, scale(1.05), lower, verdictUnchanged},
		{"15% slower", base, scale(1.15), lower, verdictRegressed},
		{"20% faster on every pair", base, scale(0.8), lower, verdictImproved},
		{"20% more throughput", base, scale(1.2), higher, verdictImproved},
		{"20% less throughput", base, scale(0.8), higher, verdictRegressed},
		{"spread wider than the bound", noisy, noisy, lower, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.what, got, c.want)
		}
	}
}
