package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is BENCHMARK.json: the one list of workloads, metric names, units and
// regression bounds. The benchmark reads it instead of carrying a second
// copy, so a metric exists exactly when the file names it.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must all be non-empty", path)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// defs returns the metric list a run with the given trace setting reports.
func (sp *spec) defs(trace bool) []metricDef {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// metricOut is one reported value in the driver's result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project picks the values the run must report out of everything the
// workload measured. A name the spec does not know is a typo in the
// benchmark and fails the run. An end-to-end metric must be present; a layer
// metric that does not apply to the workload (WAL syncs on a read-only run)
// reports 0.
func (sp *spec) project(all map[string]float64, trace bool) (map[string]metricOut, error) {
	known := map[string]bool{}
	for _, d := range sp.EndToEnd {
		known[d.Name] = true
	}
	for _, d := range sp.PerLayer {
		known[d.Name] = true
	}
	var unknown []string
	for name := range all {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics not named in BENCHMARK.json: %v", unknown)
	}
	out := map[string]metricOut{}
	for _, d := range sp.defs(trace) {
		v, ok := all[d.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return out, nil
}
