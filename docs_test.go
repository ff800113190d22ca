package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/rdb"
	"repro/internal/sweep"
	"repro/internal/table"
)

// TestDocCitations keeps the prose honest about both binaries: every
// BENCH_<id>.json, `fembench -exp <id>` and `fembench -<flag>`, every spdbd
// route (`host:port/route`, `GET|POST /route`, query string aside) and every
// `spdbd -<flag>` that README, the architecture document, the CI workflow
// or the verify recipe mentions must still exist — as a registry entry, a
// committed file, a flag the binary defines or a route spdbd registers.
// And every backticked `Engine.X` or `<internal package>.X[.Y]` with an
// exported X in README or the architecture document must name a
// declaration in the package's non-test files (`pkg.M` may name a method
// M of any of the package's types), and every backticked span there that
// starts with a lowerCamel identifier (`searchOps`, `specBDJ()`,
// `minCost = …`) must name an identifier of the module's non-test code.
// Every backticked `TestX`, `FuzzX` or `BenchmarkX` there, and every TestX
// or FuzzX the CI workflow names (a trailing * a prefix), must name a
// function of the module's tests; every backticked `*.go` path in the three
// must end the path of a file in the repository. Every backticked
// `spdb_<family>` in README or the architecture document, and every family
// of the architecture document's table of them (written without the
// prefix), must be a /metrics family the non-test code emits: a trailing
// {labels} aside, a {a,b} inside expanded, a trailing * a prefix.
func TestDocCitations(t *testing.T) {
	defined := func(file, pattern string) map[string]bool {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return names
	}
	const flagDef = `flag\.\w+\("([a-z][a-z-]*)"`
	flags := defined("cmd/fembench/main.go", flagDef)
	spdbdFlags := defined("cmd/spdbd/main.go", flagDef)
	routes := defined("cmd/spdbd/main.go", `mux\.HandleFunc\("([^"]+)"`)
	if !flags["exp"] || !flags["json"] || !spdbdFlags["data-dir"] || !routes["/query"] {
		t.Fatalf("flags or routes not recognised: fembench %v, spdbd %v %v", flags, spdbdFlags, routes)
	}
	known := func(id string) bool {
		_, ok := bench.Lookup(id)
		return ok
	}

	benchFile := regexp.MustCompile(`BENCH_([A-Za-z0-9-]+)\.json`)
	expIDs := regexp.MustCompile(`fembench\b.*?\s-exp\s+([a-z0-9][a-z0-9,-]*)`)
	flagUse := regexp.MustCompile(`\s-([a-z][a-z-]*)`)
	routeUse := regexp.MustCompile(`[\w.-]*:\d+(/[\w/-]*)|\b(?:GET|POST)\s+(/[\w/-]*)`)
	decls := map[string]map[string]bool{}
	codeSpan := regexp.MustCompile("`([^`]+)`")
	qualified := regexp.MustCompile(`^(\w+)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	lowerCamel := regexp.MustCompile(`^[a-z][a-z0-9]*[A-Z][A-Za-z0-9]*\b`)
	idents, tests := identifiers(t)
	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*\*?`)
	testSpan := regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z]\w*\*?$`)
	goPath := regexp.MustCompile(`^[\w./-]+\.go$`)
	files := repoFiles(t)
	families := metricFamilies(t, files)
	inFamilyTable := false
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := doc == "README.md" || doc == "docs/ARCHITECTURE.md"
		for n, line := range strings.Split(string(text), "\n") {
			inFamilyTable = doc == "docs/ARCHITECTURE.md" && (strings.HasPrefix(line, "| Layer | Families (prefix `spdb_`)") ||
				inFamilyTable && strings.HasPrefix(line, "|"))
			if prose {
				for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
					name := span[1]
					if inFamilyTable && !strings.HasPrefix(name, "spdb_") && !strings.Contains(name, "/") && name != "spdb_" {
						name = "spdb_" + name
					}
					if strings.HasPrefix(name, "spdb_") && name != "spdb_" && !families(name) {
						t.Errorf("%s:%d: `%s`: no /metrics family %s", doc, n+1, span[1], name)
					}
				}
			}
			if doc == ".github/workflows/ci.yml" {
				for _, name := range testName.FindAllString(line, -1) {
					if !tests(name) {
						t.Errorf("%s:%d: %s: no such test", doc, n+1, name)
					}
				}
			}
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				if prose && testSpan.MatchString(span[1]) && !tests(span[1]) {
					t.Errorf("%s:%d: `%s`: no such test", doc, n+1, span[1])
				}
				if doc != ".claude/skills/verify/SKILL.md" && goPath.MatchString(span[1]) && !slices.ContainsFunc(files, func(f string) bool {
					return f == span[1] || strings.HasSuffix(f, "/"+span[1])
				}) {
					t.Errorf("%s:%d: `%s`: no such file", doc, n+1, span[1])
				}
				if id := lowerCamel.FindString(span[1]); prose && id != "" && !idents[id] {
					t.Errorf("%s:%d: `%s`: no identifier %s in the module's code", doc, n+1, span[1], id)
				}
				m := qualified.FindStringSubmatch(span[1])
				if !prose || m == nil {
					continue
				}
				pkg, name := m[1], m[2]
				if pkg == "Engine" {
					pkg, name = "core", "Engine."+m[2]
				} else if m[3] != "" {
					name += "." + m[3]
				}
				if _, err := os.Stat("internal/" + pkg); err != nil {
					continue
				}
				if decls[pkg] == nil {
					decls[pkg] = declarations(t, "internal/"+pkg)
				}
				if !decls[pkg][name] && (m[3] != "" || !decls[pkg]["*."+name]) {
					t.Errorf("%s:%d: `%s`: internal/%s declares no %s", doc, n+1, span[1], pkg, name)
				}
			}
			for _, m := range benchFile.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(m[0]); err != nil && !known(m[1]) {
					t.Errorf("%s:%d: %s is neither committed nor written by any experiment", doc, n+1, m[0])
				}
			}
			for _, m := range routeUse.FindAllStringSubmatch(line, -1) {
				if route := m[1] + m[2]; !routes[route] {
					t.Errorf("%s:%d: %s: spdbd serves no such route", doc, n+1, route)
				}
			}
			if at := strings.Index(line, "spdbd"); at >= 0 && !strings.Contains(line[:at], "go test") {
				args, _, _ := strings.Cut(line[at:], " #")
				for _, m := range flagUse.FindAllStringSubmatch(args, -1) {
					if !spdbdFlags[m[1]] {
						t.Errorf("%s:%d: spdbd -%s: no such flag", doc, n+1, m[1])
					}
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

// metricFamilies lists the /metrics families the module's non-test code
// spells ("spdb_…" string literals), and reports whether a documented
// family names one of them.
func metricFamilies(t *testing.T, files []string) func(string) bool {
	literal := regexp.MustCompile(`"(spdb_[a-z0-9_]+)"`)
	defined := map[string]bool{}
	for _, path := range files {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "benchmark/") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range literal.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
	}
	known := func(name string) bool {
		prefix, wild := strings.CutSuffix(name, "*")
		if !wild {
			return defined[name]
		}
		for d := range defined {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	expand := regexp.MustCompile(`\{([^}]*)\}`)
	return func(name string) bool {
		if i := strings.LastIndex(name, "{"); i > 0 && strings.HasSuffix(name, "}") {
			name = name[:i] // the labels
		}
		m := expand.FindStringSubmatchIndex(name)
		if m == nil {
			return known(name)
		}
		for _, alt := range strings.Split(name[m[2]:m[3]], ",") {
			if !known(name[:m[0]] + alt + name[m[1]:]) {
				return false
			}
		}
		return true
	}
}

// identifiers lists every identifier the root module's non-test Go files
// spell — declared names, fields, methods and locals alike — and reports,
// of a name (a trailing * a prefix), whether it is that of a test, fuzz or
// benchmark function in its test files. The benchmark is a module of its
// own and is not walked.
func identifiers(t *testing.T) (map[string]bool, func(string) bool) {
	names, tests := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range repoFiles(t) {
		if !strings.HasSuffix(path, ".go") || strings.HasPrefix(path, "benchmark/") || strings.Contains(path, "testdata/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					tests[fn.Name.Name] = true
				}
			}
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
	}
	return names, func(name string) bool {
		prefix, wild := strings.CutSuffix(name, "*")
		for n := range tests {
			if n == name || wild && strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}
}

// repoFiles lists the repository's files, hidden directories aside.
func repoFiles(t *testing.T) []string {
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir():
			out = append(out, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// declarations lists what the non-test files of the package in dir
// declare: every top-level name, "T.M" for each method M and struct field
// M of a type T, and "*.M" for each method M.
func declarations(t *testing.T, dir string) map[string]bool {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						names[id.Name+"."+d.Name.Name] = true
					}
					names["*."+d.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								names[id.Name] = true
							}
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
							st, ok := spec.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									names[spec.Name.Name+"."+id.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return names
}

// relationRows renders the relation table of ARCHITECTURE §Physical design
// from the declaration: one row per relation of sweep.Relations, its
// storage under each strategy read back from a catalog the declared DDL
// ran against.
func relationRows(t *testing.T) []string {
	space := "database" // of the last table store created
	store := func(rel sweep.Relation, s sweep.IndexStrategy) string {
		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		schema := sweep.Schema{Catalog: db.Catalog(), Strategy: s, Exec: func(q string) error {
			_, err := db.Exec(q)
			return err
		}}
		rel.BelowMerge = false
		if err := schema.Create(rel); err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Catalog().Get(rel.Name)
		if space = "database"; tbl.Temp() {
			space = "temp"
		}
		on := func(ix *table.Index) string {
			cols := make([]string, len(ix.Cols))
			for i, c := range ix.Cols {
				cols[i] = tbl.Schema.Columns[c].Name
			}
			if ix.Unique {
				return "unique (" + strings.Join(cols, ", ") + ")"
			}
			return "(" + strings.Join(cols, ", ") + ")"
		}
		out := "heap"
		if clu := tbl.Clustered(); clu != nil {
			out = "B+tree on " + on(clu)
		}
		for _, ix := range tbl.Secondary {
			out += ", index " + on(ix)
		}
		return out
	}
	var rows []string
	for _, rel := range sweep.Relations {
		key, snap := "—", "no"
		if rel.Key != "" {
			key = rel.Key
		}
		if rel.Snapshot {
			snap = "yes"
		}
		owner := rel.Owner.String()
		if rel.BelowMerge {
			owner += ", below the MERGE level"
		}
		clu, sec, none := store(rel, sweep.ClusteredIndex), store(rel, sweep.SecondaryIndex), store(rel, sweep.NoIndex)
		rows = append(rows, fmt.Sprintf("| `%s` | %s | %s | %s | %s | %s | %s | %s | %s |", rel.Name, rel.Cols, key,
			clu, sec, none, space, owner, snap))
	}
	return rows
}

// TestDocRelations: every declared relation has its row in the relation
// table of ARCHITECTURE §Physical design, as the declaration renders it
// today. On a missing or stale row the whole table is printed to paste.
func TestDocRelations(t *testing.T) {
	text, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := relationRows(t)
	for _, row := range rows {
		if !strings.Contains(string(text), row+"\n") {
			t.Fatalf("docs/ARCHITECTURE.md lacks the row\n%s\nthe table the declaration renders:\n%s", row, strings.Join(rows, "\n"))
		}
	}
}
