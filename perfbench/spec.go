package main

import (
	"encoding/json"
	"io"
)

// runSeconds is how long one benchmark run measures by default.
const runSeconds = 30

// metricDef names one metric of BENCHMARK.json. Bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric may
// get worse before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// e2eEngines are the engines every workload runs; only they get per-engine
// end-to-end metrics, because each end-to-end metric is reported on every
// workload and the GAS engine has no ALS program.
var e2eEngines = []string{"hama", "cyclops", "cyclopsmt"}

// endToEndDefs lists the untraced run's metrics. The bounds follow the
// spread over ten seeds on a shared 2-CPU host: times move with the host's
// load, counts with the generated inputs; set-up time gets the largest.
func endToEndDefs() []metricDef {
	defs := []metricDef{{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)}}
	for _, e := range e2eEngines {
		defs = append(defs, metricDef{Name: "job_s." + e, Unit: "s", Better: "lower", Bound: bound(0.24)})
	}
	for _, e := range e2eEngines {
		defs = append(defs, metricDef{Name: "wire_mb." + e, Unit: "MB", Better: "lower", Bound: bound(0.2)})
	}
	return append(defs,
		metricDef{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: bound(0.24)},
		metricDef{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: bound(0.1)},
	)
}

// perLayerDefs lists the traced run's metrics; "<e>" expands to each engine.
func perLayerDefs() []metricDef {
	type d struct{ name, unit, better string }
	rows := []d{
		{"graph.load_s", "s", "lower"},
		{"graph.input_mb", "MB", "lower"},
		{"gen.build_s", "s", "lower"},
		{"partition.s.<e>", "s", "lower"},
		{"partition.replication.<e>", "ratio", "lower"},
		{"ingress.s.<e>", "s", "lower"},
		{"ingress.replicas.<e>", "count", "lower"},
		{"run.s.<e>", "s", "lower"},
		{"run.supersteps.<e>", "count", "lower"},
		{"run.compute_units.<e>", "count", "lower"},
		{"run.phase_s.PRS.<e>", "s", "lower"},
		{"run.phase_s.CMP.<e>", "s", "lower"},
		{"run.phase_s.SND.<e>", "s", "lower"},
		{"run.phase_s.SYN.<e>", "s", "lower"},
		{"run.step_ms.p50.<e>", "ms", "lower"},
		{"run.step_ms.tail.<e>", "ms", "lower"},
		{"run.barrier_wait_s.<e>", "s", "lower"},
		{"run.redundant_ratio.<e>", "ratio", "higher"},
		{"transport.messages.<e>", "count", "lower"},
		{"transport.batches.<e>", "count", "lower"},
		{"transport.locked_enqueues.<e>", "count", "lower"},
		{"transport.frames.<e>", "count", "lower"},
		{"transport.retries.<e>", "count", "lower"},
		{"checkpoint.save_s.<e>", "s", "lower"},
		{"checkpoint.saves.<e>", "count", "lower"},
		{"checkpoint.mb.<e>", "MB", "lower"},
		{"checkpoint.load_s.<e>", "s", "lower"},
		{"algorithms.ref_s", "s", "lower"},
		{"algorithms.result_err.<e>", "ratio", "lower"},
		{"metrics.model_ratio.<e>", "ratio", "higher"},
		{"mem.gc_cycles", "count", "lower"},
		{"mem.gc_pause_s", "s", "lower"},
		{"obs.trace_overhead", "ratio", "lower"},
	}
	var defs []metricDef
	for _, r := range rows {
		if n := len(r.name); n > 4 && r.name[n-4:] == ".<e>" {
			for _, e := range engines {
				defs = append(defs, metricDef{Name: r.name[:n-3] + e, Unit: r.unit, Better: r.better})
			}
			continue
		}
		defs = append(defs, metricDef{Name: r.name, Unit: r.unit, Better: r.better})
	}
	return defs
}

// writeSpec writes BENCHMARK.json: the command, the workloads and every
// metric, generated from the same tables the benchmark reports from.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs(),
		PerLayer:   perLayerDefs(),
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
