package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
)

// TestRunSQL drives -sql the way the README does: the shell speaks the
// engine's dialect, and a construct outside it is the parser's positioned
// error, not a panic and not an exit from inside runSQL.
func TestRunSQL(t *testing.T) {
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := graph.Power(200, 3, 7)
	if err := core.NewEngine(db, core.Options{}).LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runSQL(&out, db, "SELECT COUNT(*) FROM TEdges"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "count\n") || !strings.Contains(out.String(), "(1 rows)") {
		t.Fatalf("README example printed %q", out.String())
	}
	out.Reset()
	if err := runSQL(&out, db, "DELETE FROM TEdges WHERE fid = 0 AND tid = 0"); err != nil || !strings.HasPrefix(out.String(), "ok (") {
		t.Fatalf("DML: %q, %v", out.String(), err)
	}
	for _, c := range []struct{ stmt, want string }{
		{"SELECT * FROM TEdges", `unexpected "*" in expression (near byte 7)`},
		{"SELECT fid FROM TEdges ORDER BY fid LIMIT 3", `trailing input starting at "ORDER" (near byte 23)`},
		{"SELECT fid FROM TEdges WHERE cost = 'x'", `unexpected character '\'' at 36`},
		{"TRUNCATE TABLE TEdges", `expected statement, got "TRUNCATE" (near byte 0)`},
		{"SELECT nope FROM TEdges", "unknown column nope"},
	} {
		out.Reset()
		err := runSQL(&out, db, c.stmt)
		if err == nil || !strings.Contains(err.Error(), c.want) || out.Len() != 0 {
			t.Errorf("%s: error %v, output %q; want an error containing %q and no output", c.stmt, err, out.String(), c.want)
		}
	}
}
