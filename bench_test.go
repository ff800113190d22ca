// The paper's evaluation artefacts as testing.B runs, one sub-benchmark per
// row of the spec table in internal/bench (§5's tables and figures), at a
// reduced scale so `go test -bench=.` completes in minutes; use
// cmd/fembench for full-scale runs.
package repro_test

import (
	"testing"

	"repro/internal/bench"
)

func BenchmarkPaper(b *testing.B) {
	cfg := bench.Config{Queries: 2, Scale: 0.1, Seed: 42}
	for _, f := range bench.Figures {
		b.Run(f.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab, err := bench.Run(f, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(tab.Rows) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}
