package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONListsReportedMetrics keeps BENCHMARK.json and the
// metrics the result line carries in step.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.Workloads); !slices.Equal(got, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", got, workloadNames)
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench reports %v", got, endToEndNames)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, perfbench reports %v", got, perLayerNames)
	}
}
