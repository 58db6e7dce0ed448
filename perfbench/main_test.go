package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which declares the
// benchmark's workloads and metrics, in step with what the benchmark
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a benchmark workload", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s (%s), reported %s (%s)", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s (%s), reported %s (%s)", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

func TestResultLine(t *testing.T) {
	var out strings.Builder
	o := &outcome{workload: "tokyo-wire", defs: endToEnd[:1], metrics: map[string]float64{"survey_s": 1.5},
		ops: &opCounter{attempted: 3}}
	if code := printResult(&out, []*outcome{o}); code != 0 {
		t.Fatalf("exit %d for a clean run", code)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || res.Metrics["survey_s"].Unit != "s" {
		t.Fatalf("result %+v", res)
	}
	o.ops.failed = 1
	out.Reset()
	if code := printResult(&out, []*outcome{o}); code != 1 || !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("exit %d, %s: a failed check must print correct=false and exit 1", code, out.String())
	}
	o.ops.failed = 0
	o.defs = endToEnd[:2] // survey_cpu_s was not measured
	out.Reset()
	if code := printResult(&out, []*outcome{o}); code != 1 {
		t.Fatalf("exit %d, %s: a missing metric must count as a failure", code, out.String())
	}
}
