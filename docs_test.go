package repro_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestDocCitations keeps the prose honest about the second instrument:
// every BENCH_<id>.json, `fembench -exp <id>` and `fembench -<flag>` that
// README, the architecture document or the CI workflow mentions must still
// exist — as a registry entry, a committed file, or a flag cmd/fembench
// defines.
func TestDocCitations(t *testing.T) {
	src, err := os.ReadFile("cmd/fembench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([a-z]+)"`).FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	if !flags["exp"] || !flags["json"] {
		t.Fatalf("flag set not recognised in cmd/fembench/main.go: %v", flags)
	}
	known := func(id string) bool {
		_, ok := bench.Lookup(id)
		return ok
	}

	benchFile := regexp.MustCompile(`BENCH_([A-Za-z0-9-]+)\.json`)
	expIDs := regexp.MustCompile(`fembench\b.*?\s-exp\s+([a-z0-9,-]+)`)
	flagUse := regexp.MustCompile(`\s-([a-z][a-z-]*)`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			for _, m := range benchFile.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(m[0]); err != nil && !known(m[1]) {
					t.Errorf("%s:%d: %s is neither committed nor written by any experiment", doc, n+1, m[0])
				}
			}
			at := strings.Index(line, "fembench")
			if at < 0 {
				continue
			}
			if m := expIDs.FindStringSubmatch(line); m != nil {
				for _, id := range strings.Split(m[1], ",") {
					if id != "all" && !known(id) {
						t.Errorf("%s:%d: fembench -exp %s: no such experiment", doc, n+1, id)
					}
				}
			}
			for _, m := range flagUse.FindAllStringSubmatch(line[at:], -1) {
				if !flags[m[1]] {
					t.Errorf("%s:%d: fembench -%s: no such flag", doc, n+1, m[1])
				}
			}
		}
	}
}
