package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric tables, the workload
// set and BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	conv := func(defs []metricDef) []metric {
		out := make([]metric, len(defs))
		for i, d := range defs {
			out[i] = metric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound}
		}
		return out
	}
	if got := conv(endToEnd); !reflect.DeepEqual(got, doc.EndToEnd) {
		t.Errorf("end_to_end:\ncode %v\njson %v", got, doc.EndToEnd)
	}
	if got := conv(perLayer); !reflect.DeepEqual(got, doc.PerLayer) {
		t.Errorf("per_layer:\ncode %v\njson %v", got, doc.PerLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); got != fmt.Sprint(names) {
		t.Errorf("workloads: code %s, json %s", got, fmt.Sprint(names))
	}
	for _, d := range perLayer {
		if d.moves == "" {
			t.Errorf("%s states no prediction", d.name)
		}
	}
}
