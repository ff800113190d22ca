package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
)

// TestBatchWorkersClamped: a batch asking for more workers than there are
// processors runs on GOMAXPROCS of them, so it mints at most that many
// scratch-table sets. Each set past the pool's is created and dropped by DDL
// that bumps the schema epoch and recompiles every cached plan.
func TestBatchWorkersClamped(t *testing.T) {
	sv := newTestServer(t)
	before := sv.eng.ConcurrencyStats().Scratch.Minted
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf(`{"source":%d,"target":%d,"alg":"BSDJ"}`, i, 499-i)
	}
	rec := httptest.NewRecorder()
	sv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"workers":64,"queries":[`+strings.Join(items, ",")+`]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	var stats struct {
		Concurrency struct {
			Scratch struct {
				Minted uint64 `json:"minted"`
			} `json:"scratch"`
		} `json:"concurrency"`
	}
	rec = httptest.NewRecorder()
	sv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	procs := uint64(runtime.GOMAXPROCS(0))
	if minted := stats.Concurrency.Scratch.Minted; minted > before+procs {
		t.Errorf("a 64-query batch asking for 64 workers minted %d scratch sets (%d before it), want at most GOMAXPROCS = %d more",
			minted, before, procs)
	}
}

// FuzzRequestBody posts arbitrary bytes to every endpoint that takes a POST
// body, on an engine over graph.Power(60): no panic, no 5xx but the 504 a
// body's own timeout_ms asks for, and a 200 only for a body that is exactly
// one JSON value naming only fields its endpoint reads. /distance is a GET
// and answers every POST 405.
func FuzzRequestBody(f *testing.F) {
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	eng := core.NewEngine(db, core.Options{})
	f.Cleanup(func() { eng.Close() })
	if err := eng.LoadGraph(graph.Power(60, 3, 42)); err != nil {
		f.Fatal(err)
	}
	sv := newServer(eng)
	endpoints := []struct {
		url  string
		h    http.HandlerFunc
		body reflect.Type // nil: no body is answered 200
	}{
		{"/query", sv.handleQuery, reflect.TypeOf(queryRequestBody{})},
		{"/distance", sv.handleDistance, nil},
		{"/edges", sv.handleEdges, reflect.TypeOf(mutationRequest{})},
	}
	for _, seed := range []string{
		`{"source":1,"target":40}`,
		`{"source":1,"target":40,"alg":"BSDJ","max_statements":5}`,
		`{"sorce":1,"target":2}`,
		`{"source":1,"target":2}{"source":3,"target":4}`,
		`{"source":1,"target":2} `,
		`{"workers":3,"queries":[{"source":1,"target":50},{"source":2,"target":7,"alg":"DJ"}]}`,
		`{"queries":[{"source":1,"target":50,"workers":2}]}`,
		`{"source":1,"target":2,"timeout_ms":1}`,
		`{"source":1,"target":2,"timeout_ms":9223372036854775807}`,
		`{"mutations":[{"op":"insert","from":1,"to":2,"weight":3}]}`,
		`{"mutations":[{"op":"delete","from":1,"to":2}]}`,
		`{"mutations":[{"op":"update","from":3,"to":4,"weight":1,"cost":2}]}`,
		`null`, `[]`, `{`, ``,
		`{"mutations":[{"op":"insert","from":1,"to":2,"weight":2251799813685248}]}`, // above core.MaxWeight
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range endpoints {
			rec := httptest.NewRecorder()
			ep.h(rec, httptest.NewRequest(http.MethodPost, ep.url, bytes.NewReader(body)))
			switch code := rec.Code; {
			case code >= 500 && !(code == http.StatusGatewayTimeout && asksTimeout(body)):
				t.Fatalf("POST %s %q: %d %s", ep.url, body, code, rec.Body)
			case code == http.StatusOK && (ep.body == nil || !oneKnownValue(body, ep.body)):
				t.Fatalf("POST %s %q: 200 for a body that is not one value of known fields: %s", ep.url, body, rec.Body)
			}
		}
	})
}

// asksTimeout reports whether body is an object with a timeout_ms field.
func asksTimeout(body []byte) bool {
	var fields map[string]any
	if json.Unmarshal(body, &fields) != nil {
		return false
	}
	for k := range fields {
		if strings.EqualFold(k, "timeout_ms") {
			return true
		}
	}
	return false
}

// oneKnownValue reports whether body is exactly one JSON value whose
// objects name only fields of typ, each nested object checked against the
// type of the field that holds it.
func oneKnownValue(body []byte, typ reflect.Type) bool {
	var v any
	return json.Valid(body) && json.Unmarshal(body, &v) == nil && knownFields(v, typ)
}

func knownFields(v any, typ reflect.Type) bool {
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	switch v := v.(type) {
	case map[string]any:
		if typ.Kind() != reflect.Struct {
			return true // a type the decoder refuses on its own
		}
		for k, x := range v {
			f, ok := jsonField(typ, k)
			if !ok || !knownFields(x, f.Type) {
				return false
			}
		}
	case []any:
		for _, x := range v {
			if !knownFields(x, typ) {
				return false
			}
		}
	}
	return true
}

// jsonField finds the field of struct type typ that the JSON key k fills,
// matched as encoding/json matches it (case-insensitively, through embedded
// structs).
func jsonField(typ reflect.Type, k string) (reflect.StructField, bool) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous {
			if g, ok := jsonField(f.Type, k); ok {
				return g, true
			}
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		if strings.EqualFold(name, k) {
			return f, true
		}
	}
	return reflect.StructField{}, false
}
