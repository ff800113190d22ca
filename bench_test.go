// Benchmarks regenerating the paper's evaluation artefacts, one per table
// and figure (§5). Each benchmark runs the corresponding internal/bench
// experiment at a reduced scale so `go test -bench=.` completes in minutes;
// use cmd/fembench for full-scale runs.
package repro_test

import (
	"testing"

	"repro/internal/bench"
)

// benchConfig is the reduced-scale configuration for testing.B runs.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Queries = 2
	cfg.Scale = 0.1
	cfg.Seed = 42
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	fn, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := fn(benchConfig())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty result", id)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (DJ/BDJ/BSDJ expansions and time).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig6a regenerates Fig 6(a) (BDJ vs BSDJ vs scale).
func BenchmarkFig6a(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkFig6b regenerates Fig 6(b) (phase split PE/SC/FPR).
func BenchmarkFig6b(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkFig6c regenerates Fig 6(c) (operator split F/E/M).
func BenchmarkFig6c(b *testing.B) { runExperiment(b, "fig6c") }

// BenchmarkFig6d regenerates Fig 6(d) (NSQL vs TSQL).
func BenchmarkFig6d(b *testing.B) { runExperiment(b, "fig6d") }

// BenchmarkFig7a regenerates Fig 7(a) (BSDJ/BBFS/BSEG on LiveJournal-like).
func BenchmarkFig7a(b *testing.B) { runExperiment(b, "fig7a") }

// BenchmarkFig7b regenerates Fig 7(b) (BBFS/BSDJ/BSEG(3,5,7) on Random).
func BenchmarkFig7b(b *testing.B) { runExperiment(b, "fig7b") }

// BenchmarkTable3 regenerates Table 3 (time/exps/visited on Random).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig7c regenerates Fig 7(c) (BSEG vs lthd, Power).
func BenchmarkFig7c(b *testing.B) { runExperiment(b, "fig7c") }

// BenchmarkFig7d regenerates Fig 7(d) (BSEG vs lthd, real-like).
func BenchmarkFig7d(b *testing.B) { runExperiment(b, "fig7d") }

// BenchmarkFig8a regenerates Fig 8(a) (PostgreSQL profile).
func BenchmarkFig8a(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8b regenerates Fig 8(b) (query time vs buffer size).
func BenchmarkFig8b(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkFig8c regenerates Fig 8(c) (index strategies).
func BenchmarkFig8c(b *testing.B) { runExperiment(b, "fig8c") }

// BenchmarkFig8d regenerates Fig 8(d) (vs in-memory MDJ/MBDJ).
func BenchmarkFig8d(b *testing.B) { runExperiment(b, "fig8d") }

// BenchmarkFig9a regenerates Fig 9(a) (index size vs lthd, Power).
func BenchmarkFig9a(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFig9b regenerates Fig 9(b) (index size vs lthd, real-like).
func BenchmarkFig9b(b *testing.B) { runExperiment(b, "fig9b") }

// BenchmarkFig9c regenerates Fig 9(c) (construction time vs lthd, Power).
func BenchmarkFig9c(b *testing.B) { runExperiment(b, "fig9c") }

// BenchmarkFig9d regenerates Fig 9(d) (construction time vs lthd, real-like).
func BenchmarkFig9d(b *testing.B) { runExperiment(b, "fig9d") }

// BenchmarkFig9e regenerates Fig 9(e) (construction, PostgreSQL profile).
func BenchmarkFig9e(b *testing.B) { runExperiment(b, "fig9e") }

// BenchmarkFig9f regenerates Fig 9(f) (construction NSQL vs TSQL).
func BenchmarkFig9f(b *testing.B) { runExperiment(b, "fig9f") }

// BenchmarkFig9g regenerates Fig 9(g) (construction vs buffer size).
func BenchmarkFig9g(b *testing.B) { runExperiment(b, "fig9g") }

// BenchmarkFig9h regenerates Fig 9(h) (construction vs graph scale).
func BenchmarkFig9h(b *testing.B) { runExperiment(b, "fig9h") }

// BenchmarkAblationPruning measures the Theorem-1 pruning rule (DESIGN §5).
func BenchmarkAblationPruning(b *testing.B) { runExperiment(b, "ablation-pruning") }

// BenchmarkAblationDirection measures the direction-selection policy.
func BenchmarkAblationDirection(b *testing.B) { runExperiment(b, "ablation-direction") }
