package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json this command must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesBenchmarkJSON holds the metric and workload lists in code
// to the ones BENCHMARK.json publishes.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range allWorkloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, command %v", names, ours)
	}
	check := func(kind string, json []metricSpec, code []metricSpec) {
		if !slices.Equal(json, code) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\ncommand        %v", kind, json, code)
		}
	}
	var e2e, layer []metricSpec
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// tinyOptions runs one timed round of test-size inputs, one run per sample.
func tinyOptions() options { return options{seed: 3, tiny: true} }

func sameMetrics(t *testing.T, what string, res *result, specs []metricSpec) {
	t.Helper()
	if err := res.print(io.Discard, specs); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(res.metrics) != len(specs) {
		t.Fatalf("%s: %d metrics measured, BENCHMARK.json lists %d", what, len(res.metrics), len(specs))
	}
}

// TestPassesAtTinySize runs both passes of every workload for one round
// and checks that they emit exactly the published metrics and pass every
// correctness check.
func TestPassesAtTinySize(t *testing.T) {
	for _, w := range allWorkloads {
		res, err := endToEndPass(w, tinyOptions(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		sameMetrics(t, w.name+" end-to-end", res, endToEnd)
		if res.failed != 0 || res.attempted < 5 {
			t.Fatalf("%s end-to-end: %d of %d checks failed", w.name, res.failed, res.attempted)
		}

		dir := t.TempDir()
		res, err = tracedPass(w, tinyOptions(), dir, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		sameMetrics(t, w.name+" traced", res, perLayer)
		if res.failed != 0 {
			t.Fatalf("%s traced: %d of %d checks failed", w.name, res.failed, res.attempted)
		}
		for _, f := range []string{"spans.json", "cpu.pprof", "block.pprof"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("%s traced: %v", w.name, err)
			}
		}
	}
}

// TestArmedInstanceFails injects the race into the instance the passes
// measure: every run must then fail its check.
func TestArmedInstanceFails(t *testing.T) {
	for _, w := range allWorkloads {
		o := tinyOptions()
		o.armed = true
		res, err := endToEndPass(w, o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed == 0 {
			t.Errorf("%s: armed instance passed all %d checks", w.name, res.attempted)
		}
	}
}
