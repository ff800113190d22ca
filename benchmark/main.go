// Command benchmark is the repository's performance benchmark: four workloads
// over the relational shortest-path engine and its HTTP server, the
// end-to-end metrics BENCHMARK.json bounds, and a per-layer ladder. It
// measures every layer from outside, through public functions and counters,
// and checks every answer against the in-memory Dijkstra baseline.
//
// Run it from the root of a checkout through benchmark/run.sh, which builds
// it and the spdbd server first:
//
//	bash benchmark/run.sh --workload cold_bseg --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh                         # every workload once
//	bash benchmark/run.sh -runs 5 -alternate      # two interleaved result sets
//	bash benchmark/run.sh -compare A.json B.json
//
// See README.md in this directory for the workloads, metrics and predictions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	phase    string
	smoke    bool
	workdir  string
	spdbd    string
	specPath string
	clients  int
	runs     int
	alt      bool
	out      string
	compare  bool
}

// setupReps is how many times a run sets its workload up, each in a fresh
// process: setup_s is their median. Cheap set-ups repeat more often, because
// short times are the noisy ones.
var setupReps = map[string]int{"hot_bsdj": 5, "cold_bseg": 3, "mutate_mix": 3, "serve_http": 3}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line (default: every workload)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.phase, "phase", "", "internal: run|setup, the role of a child process")
	flag.BoolVar(&o.smoke, "smoke", false, "scaled-down sizes (the self-test's configuration)")
	flag.StringVar(&o.workdir, "workdir", filepath.Join("benchmark", "out"), "directory for temporary databases, traces and result files")
	flag.StringVar(&o.spdbd, "spdbd", "", "path of the built cmd/spdbd binary (serve_http)")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.IntVar(&o.clients, "clients", 0, "load-generating connections of serve_http (default min(nproc, 2))")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: how many times to run every workload")
	flag.BoolVar(&o.alt, "alternate", false, "with -runs: produce two interleaved result sets, A and B")
	flag.StringVar(&o.out, "o", "", "without -workload: result file (default <workdir>/results.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, &o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o *options, args []string) error {
	sp, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(sp, args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if o.seconds == 0 && !o.smoke {
		o.seconds = float64(sp.RunSeconds)
	}
	nproc := runtime.NumCPU()
	if o.clients == 0 {
		o.clients = min(nproc, clientCap)
	}
	if o.clients > nproc || o.clients > clientCap {
		return fmt.Errorf("%d clients asked for, but the load generator may use at most min(nproc=%d, %d)", o.clients, nproc, clientCap)
	}
	if o.workload != "" && !sp.hasWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.workdir, err = filepath.Abs(o.workdir); err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	switch {
	case o.phase != "":
		return child(ctx, o)
	case o.workload != "":
		return driverRun(ctx, o, sp)
	default:
		return runAll(ctx, o, sp)
	}
}

// child is one fresh process per set-up or measured run, so that peak RSS,
// garbage-collector state and plan caches never leak from one into another.
// It prints its runResult as JSON on standard output.
func child(ctx context.Context, o *options) error {
	res, err := runWorkload(ctx, o)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runWorkload sets one workload up and, unless the phase is "setup", measures
// it; a traced run goes on to write its spans and climb the ladder. Its
// temporary files live in a directory of its own that it removes on return.
func runWorkload(ctx context.Context, o *options) (*runResult, error) {
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		ctx: ctx, name: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		sz: fullSizes, clients: o.clients, workdir: dir, spdbd: o.spdbd,
		cal: newCalibrator(), metrics: map[string]float64{},
	}
	if o.smoke {
		e.sz = smokeSizes
	}
	if e.trace {
		e.tr = newTracer()
	}
	start := time.Now()
	e.cal.tick(calSetupTicks) // the first half of what setupDone needs
	setupOnly := o.phase == "setup"
	alg := core.AlgBSEG // what the workload searches with
	switch o.workload {
	case "hot_bsdj":
		alg = core.AlgBSDJ
		err = e.runRead(hotBSDJ(e.sz), setupOnly)
	case "cold_bseg":
		err = e.runRead(coldBSEG(e.sz), setupOnly)
	case "mutate_mix":
		err = e.runMutate(setupOnly)
	case "serve_http":
		err = e.runServe(setupOnly)
	default:
		err = fmt.Errorf("workload %q is in BENCHMARK.json but not in the benchmark", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if e.trace && !setupOnly {
		e.metrics["bench.trace_span_coverage"] = max(e.tr.coverage("query"), e.tr.coverage("http"))
		if err := e.tr.write(filepath.Join(o.workdir, "trace."+o.workload+".json"), o.workload, o.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		if err := e.opShares(alg); err != nil {
			return nil, err
		}
		if err := e.ladder(); err != nil {
			return nil, err
		}
	}
	e.metrics["fail_ratio"] = ratio(float64(e.check.failed), float64(e.check.attempted))
	return &runResult{
		Workload: o.workload, Seed: o.seed, Trace: e.trace,
		Attempted: e.check.attempted, Failed: e.check.failed, Failures: e.check.failures,
		Samples: e.samples, WallS: time.Since(start).Seconds(), Metrics: e.metrics,
	}, nil
}

// spawn runs this binary again as a child process in the given phase and
// decodes the result it prints. The child gets SIGTERM, not SIGKILL, when ctx
// is cancelled, so it can stop its server and remove its files.
func spawn(ctx context.Context, o *options, workload, phase string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-phase", phase, "-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace), "-clients", strconv.Itoa(o.clients),
		"-workdir", o.workdir, "-spdbd", o.spdbd, "-spec", o.specPath,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s child: %w", workload, phase, err)
	}
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s %s child: bad result: %w", workload, phase, err)
	}
	return &res, nil
}

// measure runs one workload: the extra set-ups first, then the measured run.
// setup_s becomes the median over all of them. A traced run reports no
// set-up time, so it sets up once.
func measure(ctx context.Context, o *options, workload string) (*runResult, error) {
	start := time.Now()
	var setups, rawSetups []float64
	if o.trace == 0 {
		for i := 1; i < setupReps[workload]; i++ {
			res, err := spawn(ctx, o, workload, "setup")
			if err != nil {
				return nil, err
			}
			setups = append(setups, res.Metrics["setup_s"])
			rawSetups = append(rawSetups, res.Metrics["raw.setup_s"])
		}
	}
	res, err := spawn(ctx, o, workload, "run")
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = median(append(setups, res.Metrics["setup_s"]))
	res.Metrics["raw.setup_s"] = median(append(rawSetups, res.Metrics["raw.setup_s"]))
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// printResult lists everything the run measured, by name with its unit.
func printResult(sp *spec, res *runResult) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, sp.EndToEnd...), sp.PerLayer...) {
		units[d.Name] = d.Unit
	}
	fmt.Printf("workload %s  seed %d  trace %v  samples %d  wall %.1f s  failed %d/%d\n",
		res.Workload, res.Seed, res.Trace, res.Samples, res.WallS, res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-42s %16.4f %s\n", name, res.Metrics[name], units[name])
	}
	for _, f := range res.Failures {
		fmt.Println("  FAILED", f)
	}
}

// driverRun is the contract with the benchmark driver: one workload, and as
// the last line of standard output one JSON object with the run's verdict
// and the metrics BENCHMARK.json lists for this trace setting.
func driverRun(ctx context.Context, o *options, sp *spec) error {
	fmt.Println(describeHost(o))
	res, err := measure(ctx, o, o.workload)
	if err != nil {
		return err
	}
	printResult(sp, res)
	metrics, err := sp.project(res.Metrics, o.trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d answers were wrong", res.Failed, res.Attempted)
	}
	return nil
}

// runRecord describes the machine and settings a result file was made with.
type runRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Clients    int     `json:"clients"`
	Started    string  `json:"started"`
	WallS      float64 `json:"wall_s"`
}

// resultSet is a result file: N runs of every workload.
type resultSet struct {
	Record runRecord               `json:"record"`
	Runs   []map[string]*runResult `json:"runs"`
}

func newRecord(o *options) runRecord {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return runRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit,
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1, Clients: o.clients,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

func describeHost(o *options) string {
	r := newRecord(o)
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  commit %s  seed %d  seconds %g  clients %d",
		r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit, r.Seed, r.Seconds, r.Clients)
}

// runAll runs every workload -runs times and writes the result file; with
// -alternate it fills two sets in turn, swapping which goes first each round,
// which is how two sets of one commit are taken for -compare.
func runAll(ctx context.Context, o *options, sp *spec) error {
	if o.out == "" {
		o.out = filepath.Join(o.workdir, "results.json")
	}
	fmt.Println(describeHost(o))
	sets := []*resultSet{{Record: newRecord(o)}}
	paths := []string{o.out}
	if o.alt {
		sets = append(sets, &resultSet{Record: newRecord(o)})
		stem := strings.TrimSuffix(o.out, ".json")
		paths = []string{stem + ".A.json", stem + ".B.json"}
	}
	start := time.Now()
	failed := 0
	for i := 0; i < o.runs; i++ {
		for k := range sets {
			set := sets[(k+i)%len(sets)]
			one := map[string]*runResult{}
			for _, w := range sp.Workloads {
				res, err := measure(ctx, o, w.Name)
				if err != nil {
					return err
				}
				printResult(sp, res)
				if _, err := sp.project(res.Metrics, o.trace == 1); err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				failed += res.Failed
				one[w.Name] = res
			}
			set.Runs = append(set.Runs, one)
		}
	}
	for k, set := range sets {
		set.Record.WallS = time.Since(start).Seconds()
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(paths[k], data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", paths[k])
	}
	if failed > 0 {
		return fmt.Errorf("%d answers were wrong", failed)
	}
	return nil
}
