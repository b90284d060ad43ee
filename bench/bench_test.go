package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCatalogue holds BENCHMARK.json and the benchmark's
// own catalogue in step: same workloads with the same reasons, same
// metrics with the same units, directions and bounds, in the same order.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, catalogue %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: manifest %+v, catalogue {%s %s}", i, got, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q breaks the naming rule", w.name)
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: manifest %+v, catalogue %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) {
				t.Errorf("metric name %q breaks the naming rule", want[i].Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEndDefs)
	compare("per_layer", m.PerLayer, perLayerDefs)
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks what the driver will: the result line parses, reports exactly
// the catalogue's metrics, and the correctness gate passed.
func TestSmoke(t *testing.T) {
	opt := options{seed: 3, seconds: 0.05, scale: 0.1, minRounds: 1, traceDir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(w, opt, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Result.Correct || out.Result.Failed != 0 || out.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: result %+v, problems %v", w.name, traced, out.Result, out.Problems)
			}
			if len(out.Digests) != 1 || !reflect.DeepEqual(out.Digests, out.References) {
				t.Errorf("%s traced=%v: digests %v, references %v", w.name, traced, out.Digests, out.References)
			}
			line, err := json.Marshal(out.Result)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s: result line does not parse: %v", w.name, err)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(back.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, catalogue has %d", w.name, traced, len(back.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := back.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q, want %q", w.name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(out.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
			}
		}
	}
}
