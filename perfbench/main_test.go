package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"cyclops/internal/graph"
)

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that exactly the metrics of BENCHMARK.json are printed, each with
// its unit, and that every job passed its reference check.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-seed", "7", "-seconds", "0",
					"-trace", trace, "-scale", "0.01", "-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   *bool            `json:"correct"`
					Attempted *int             `json:"attempted"`
					Failed    *int             `json:"failed"`
					Metrics   map[string]value `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if res.Correct == nil || !*res.Correct || res.Failed == nil || *res.Failed != 0 ||
					res.Attempted == nil || *res.Attempted < 1 {
					t.Fatalf("result: correct=%v attempted=%v failed=%v", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEndDefs()
				if trace == "1" {
					defs = perLayerDefs()
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				table := strings.Join(lines[:len(lines)-1], "\n")
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
						continue
					}
					if !strings.Contains(table, d.Name+" ") || !strings.Contains(table, " "+d.Unit+"\n") {
						t.Errorf("metric %s not printed with its unit", d.Name)
					}
					if d.Bound != nil && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// tinyInput generates a workload's input at a tiny scale and returns it with
// its reference result.
func tinyInput(t *testing.T, name string) (*workload, []byte, reference) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	g, users, err := w.build(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return w, buf.Bytes(), computeReference(w, g, users)
}

// TestPerturbedResultsFail shifts one vertex of the reference, which makes
// every engine's correct result differ from it by that much, and checks that
// each job is counted as failed.
func TestPerturbedResultsFail(t *testing.T) {
	cases := []struct {
		workload string
		perturb  func(*reference)
	}{
		{"pagerank-wiki", func(r *reference) { r.pr[3] += 0.01 }},
		{"sssp-road-metis", func(r *reference) { r.sssp[5] += 1e-9 }},
		{"als-syngl-tcp", func(r *reference) { r.rmse += 1e-6 }},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			w, input, ref := tinyInput(t, c.workload)
			runAll := func(ref reference) result {
				var res result
				for _, e := range w.Engines {
					res.add(runJob(w, e, input, ref, nil, t.TempDir()))
				}
				return res
			}
			if ok := runAll(ref); ok.Failed != 0 || ok.Attempted != len(w.Engines) {
				t.Fatalf("unperturbed: attempted %d failed %d: %v", ok.Attempted, ok.Failed, ok.failures)
			}
			c.perturb(&ref)
			if bad := runAll(ref); bad.Failed != len(w.Engines) || bad.Attempted != len(w.Engines) {
				t.Fatalf("perturbed: attempted %d failed %d, want every job failed", bad.Attempted, bad.Failed)
			}
		})
	}
}

func TestReferenceChecks(t *testing.T) {
	ref := reference{pr: []float64{0.5, 0.5}, sssp: []float64{0, 1}}
	if _, err := ref.prError([]float64{0.5, 0.5 + 1e-4}); err != nil {
		t.Errorf("rank error within tolerance rejected: %v", err)
	}
	if _, err := ref.prError([]float64{0.5, 0.51}); err == nil {
		t.Error("perturbed rank vector accepted")
	}
	if _, err := ref.ssspError([]float64{0, 1 + 1e-12}); err == nil {
		t.Error("perturbed distance accepted")
	}
	if d, err := ref.ssspError([]float64{0, 1}); err != nil || d != 0 {
		t.Errorf("exact distances: err %v, diff %g", err, d)
	}
}

// TestSelfTimesTelescope checks that self times over nested spans add up to
// the root span and exclude lane spans.
func TestSelfTimesTelescope(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run.x")
	time.Sleep(time.Millisecond)
	step := tr.begin("superstep")
	tr.add("phase.CMP", tr.now()-time.Microsecond, tr.now(), -1, -1)
	tr.add("worker.compute", 0, time.Hour, 0, step)
	tr.end(step)
	ck := tr.begin("checkpoint.save")
	time.Sleep(time.Millisecond)
	tr.end(ck)
	tr.end(root)
	var sum float64
	for _, v := range tr.selfTimes() {
		sum += v
	}
	rootDur := (tr.spans[root].End - tr.spans[root].Start).Seconds()
	if d := sum - rootDur; d > 1e-12 || d < -1e-12 {
		t.Fatalf("self times sum to %g, root span lasts %g", sum, rootDur)
	}
	if tr.selfTimes()["checkpoint.save"] <= 0 {
		t.Fatal("checkpoint span has no self time")
	}
}

// TestSpecMatchesFile keeps the committed BENCHMARK.json equal to the tables
// the benchmark reports from.
func TestSpecMatchesFile(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
}
