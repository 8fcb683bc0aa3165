// Command perfbench is the repository benchmark: it times each engine's
// solution of three graph workloads end to end, checks every result against
// the sequential reference, and, in a traced run, splits each job into
// per-layer self times from spans it records around the calls into each
// layer.
//
//	go run . -workload pagerank-wiki -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. -spec prints BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cyclops/internal/graph"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	out      string
	rev      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's input is generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "input size relative to the workload's default")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for checkpoints, spans and results")
	fs.StringVar(&o.rev, "rev", "unknown", "git revision recorded in the host fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		if err := writeSpec(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	o.trace = trace == 1
	w, err := lookupWorkload(o.workload)
	if err != nil || (trace != 0 && trace != 1) || o.seconds < 0 || o.scale <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g, scale %g): %v\n",
			o.workload, trace, o.seconds, o.scale, err)
		return 2
	}
	res, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(res, o, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED:", f)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	host     map[string]any
	failures []string
	jobs     []jobOut
	spans    []tracedSpan
}

// tracedSpan is a span as written to the span file, tagged with its job.
type tracedSpan struct {
	Job string `json:"job"`
	Span
}

// inputSeed derives the generator seed of a run's i-th input. The run
// seed is scrambled with splitmix64 so that runs with neighbouring seeds
// share no generator seeds.
func inputSeed(seed int64, i int) int64 {
	z := uint64(seed)<<8 + uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// An input is one generated graph, serialised with graph.WriteBinary, and
// its sequential reference result.
type input struct {
	bytes      []byte
	ref        reference
	genS, refS float64
}

// makeInput generates an input from seed; the engines only ever see its
// bytes, loaded with graph.ReadBinary.
func makeInput(w *workload, scale float64, seed int64) (input, error) {
	var in input
	t0 := time.Now()
	g, users, err := w.build(scale, seed)
	if err != nil {
		return in, fmt.Errorf("gen: %w", err)
	}
	in.genS = time.Since(t0).Seconds()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return in, fmt.Errorf("graph: %w", err)
	}
	in.bytes = buf.Bytes()
	if g, err = graph.ReadBinary(bytes.NewReader(in.bytes)); err != nil {
		return in, fmt.Errorf("graph: %w", err)
	}
	t0 = time.Now()
	in.ref = computeReference(w, g, users)
	in.refS = time.Since(t0).Seconds()
	return in, nil
}

// measure builds the inputs and their references, then runs jobs round-robin
// over the workload's engines, each engine until it has used its share of
// the run time. An untraced run reports the end-to-end metrics; in a traced
// run each engine alternates untraced and traced jobs, and the run reports
// per-layer metrics.
func measure(w *workload, o options) (*result, error) {
	ckptRoot := filepath.Join(o.out, "ckpt")
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	var ins []input
	for i := 0; i < w.inputs; i++ {
		in, err := makeInput(w, o.scale, inputSeed(o.seed, i))
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}

	res := &result{host: fingerprint(o)}
	start := time.Now()
	budget := time.Duration(o.seconds / float64(len(w.Engines)) * float64(time.Second))
	// Each engine's first job is a warm-up: checked and counted, but left
	// out of the figures, because it also pays for growing the heap.
	minJobs := 2
	if o.trace {
		minJobs = 3
	}
	spent := make(map[string]time.Duration)
	count := make(map[string]int)
	for more := true; more; {
		more = false
		for _, e := range w.Engines {
			if count[e] >= minJobs && spent[e] >= budget {
				continue
			}
			more = true
			var tr *tracer
			if o.trace && count[e]%2 == 0 && count[e] > 0 {
				tr = newTracer()
			}
			in := count[e] % len(ins)
			t := time.Now()
			j := runJob(w, e, ins[in].bytes, ins[in].ref, tr, ckptRoot)
			j.Input, j.Warmup = in, count[e] == 0
			spent[e] += time.Since(t)
			count[e]++
			res.add(j)
		}
	}
	res.host["jobs_per_engine"] = count
	res.host["measured_s"] = time.Since(start).Seconds()
	if o.trace {
		res.Metrics = perLayer(w, res, ins)
	} else {
		res.Metrics = endToEnd(w, res.jobs)
	}
	if err := os.RemoveAll(ckptRoot); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.failures) == 0
	return res, nil
}

// add records a job and counts it: a job fails when loading, New or Run
// returns an error (transport faults included) or its result misses the
// reference.
func (res *result) add(j jobOut) {
	res.Attempted++
	if j.Err != nil {
		j.Error = j.Err.Error()
		res.Failed++
		res.failures = append(res.failures, j.Error)
	}
	res.jobs = append(res.jobs, j)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (the mean of the middle two
// for an even-length median); 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 && q == 0.5 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// typical summarises f over engine e's successful jobs with the given
// tracing (e == "" takes every engine): the median over each input's jobs,
// averaged over the inputs.
func typical(jobs []jobOut, traced bool, e string, f func(jobOut) float64) float64 {
	var byInput [][]float64
	for _, j := range jobs {
		if j.Err == nil && !j.Warmup && j.Traced == traced && (e == "" || j.Engine == e) {
			for len(byInput) <= j.Input {
				byInput = append(byInput, nil)
			}
			byInput[j.Input] = append(byInput[j.Input], f(j))
		}
	}
	var sum float64
	var n int
	for _, xs := range byInput {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func loadS(j jobOut) float64 { return j.LoadS }
func newS(j jobOut) float64  { return j.NewS }

// endToEnd reports medians over the untraced jobs. Set-up, allocation and
// live heap combine the engines' medians: set-up is the median graph load
// plus each engine's median New, allocation their sum, live heap their
// largest.
func endToEnd(w *workload, jobs []jobOut) map[string]value {
	med := func(e string, f func(jobOut) float64) float64 { return typical(jobs, false, e, f) }
	setup := med("", loadS)
	var alloc, live float64
	for _, e := range w.Engines {
		setup += med(e, newS)
		alloc += med(e, func(j jobOut) float64 { return float64(j.Alloc) / 1e6 })
		live = max(live, med(e, func(j jobOut) float64 { return float64(j.LiveHeap) / 1e6 }))
	}
	m := map[string]value{
		"setup_s":      {setup, "s"},
		"alloc_mb":     {alloc, "MB"},
		"live_heap_mb": {live, "MB"},
	}
	for _, e := range e2eEngines {
		m["job_s."+e] = value{med(e, jobOut.JobS), "s"}
		m["wire_mb."+e] = value{med(e, func(j jobOut) float64 { return float64(j.Stats.WireBytes) / 1e6 }), "MB"}
	}
	return m
}

// layerTimes is one traced job's self time per layer and its breakdowns.
type layerTimes struct {
	partition, ingress, run, ckpt float64
	phases                        map[string]float64
	steps                         []float64
}

func layersOf(j jobOut) layerTimes {
	self := j.tr.selfTimes()
	lt := layerTimes{
		partition: self["partition"],
		ingress:   self["new."+j.Engine],
		run:       self["run."+j.Engine] + self["superstep"],
		ckpt:      self["checkpoint.save"],
		phases:    make(map[string]float64),
		steps:     j.tr.durations("superstep"),
	}
	for _, p := range []string{"PRS", "CMP", "SND", "SYN"} {
		lt.phases[p] = self["phase."+p]
		lt.run += self["phase."+p]
	}
	return lt
}

func perLayer(w *workload, res *result, ins []input) map[string]value {
	jobs := res.jobs
	m := make(map[string]value)
	for _, d := range perLayerDefs() {
		m[d.Name] = value{0, d.Unit}
	}
	set := func(name string, v float64) { m[name] = value{v, m[name].Unit} }
	traced := func(e string, f func(jobOut) float64) float64 { return typical(jobs, true, e, f) }
	plain := func(e string, f func(jobOut) float64) float64 { return typical(jobs, false, e, f) }

	set("graph.load_s", traced("", func(j jobOut) float64 { return j.tr.selfTimes()["graph.load"] }))
	var inputMB, genS, refS []float64
	for _, in := range ins {
		inputMB = append(inputMB, float64(len(in.bytes))/1e6)
		genS = append(genS, in.genS)
		refS = append(refS, in.refS)
	}
	set("graph.input_mb", median(inputMB))
	set("gen.build_s", median(genS))
	set("algorithms.ref_s", median(refS))
	var tracedJob, plainJob, gcCycles, gcPause float64
	for _, e := range w.Engines {
		tracedJob += traced(e, jobOut.JobS)
		plainJob += plain(e, jobOut.JobS)
		gcCycles += plain(e, func(j jobOut) float64 { return float64(j.GCCycles) })
		gcPause += plain(e, func(j jobOut) float64 { return float64(j.GCPauseNs) / 1e9 })
	}
	set("mem.gc_cycles", gcCycles)
	set("mem.gc_pause_s", gcPause)
	overhead := tracedJob / plainJob
	set("obs.trace_overhead", overhead)

	for _, e := range w.Engines {
		var steps []float64
		var last jobOut
		for _, j := range jobs {
			if !j.Traced || j.Engine != e || j.Err != nil {
				continue
			}
			lt := layersOf(j)
			// The layers' self times must account for the traced job.
			if sum := lt.partition + lt.ingress + lt.run + lt.ckpt; math.Abs(sum-j.JobS()) > math.Max(1e-3, overhead-1)*j.JobS() {
				res.failures = append(res.failures, fmt.Sprintf(
					"%s: layer self times sum to %.6fs, traced job took %.6fs", e, sum, j.JobS()))
			}
			steps = append(steps, lt.steps...)
			last = j
		}
		if !last.Traced {
			continue
		}
		layer := func(f func(layerTimes) float64) float64 {
			return traced(e, func(j jobOut) float64 { return f(layersOf(j)) })
		}
		set("partition.s."+e, layer(func(l layerTimes) float64 { return l.partition }))
		set("ingress.s."+e, layer(func(l layerTimes) float64 { return l.ingress }))
		set("run.s."+e, layer(func(l layerTimes) float64 { return l.run }))
		set("checkpoint.save_s."+e, layer(func(l layerTimes) float64 { return l.ckpt }))
		for _, p := range []string{"PRS", "CMP", "SND", "SYN"} {
			set("run.phase_s."+p+"."+e, layer(func(l layerTimes) float64 { return l.phases[p] }))
		}
		set("run.step_ms.p50."+e, 1e3*quantile(steps, 0.5))
		set("run.step_ms.tail."+e, 1e3*quantile(steps, 0.95))
		set("run.barrier_wait_s."+e, traced(e, func(j jobOut) float64 {
			return j.hooks.barrierWait.Seconds() / float64(max(j.hooks.workers, 1))
		}))
		set("run.compute_units."+e, float64(last.hooks.computeUnits))
		set("partition.replication."+e, last.Replication)
		set("ingress.replicas."+e, float64(last.Replicas))
		set("run.supersteps."+e, float64(len(last.Trace.Steps)))
		var msgs, redundant int64
		for _, s := range last.Trace.Steps {
			msgs += s.Messages
			redundant += s.RedundantMessages
		}
		useful := 1.0
		if msgs > 0 {
			useful = 1 - float64(redundant)/float64(msgs)
		}
		set("run.redundant_ratio."+e, useful)
		st := last.Stats
		set("transport.messages."+e, float64(st.Messages))
		set("transport.batches."+e, float64(st.Batches))
		set("transport.locked_enqueues."+e, float64(st.LockedEnqueues))
		set("transport.frames."+e, float64(st.Encodes+st.Decodes))
		set("transport.retries."+e, float64(st.Retries+st.Reconnects))
		set("checkpoint.saves."+e, float64(last.Ckpt.Saves))
		set("checkpoint.mb."+e, float64(last.Ckpt.Bytes)/1e6)
		set("checkpoint.load_s."+e, traced(e, func(j jobOut) float64 { return j.Ckpt.LoadS }))
		set("algorithms.result_err."+e, last.ResultErr)
		set("metrics.model_ratio."+e, last.Trace.ModelTime()/1e9/plain(e, func(j jobOut) float64 { return j.RunS }))
		for _, s := range last.tr.spans {
			res.spans = append(res.spans, tracedSpan{Job: e, Span: s})
		}
	}
	return m
}

// fingerprint identifies the host and build a result was measured on.
func fingerprint(o options) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_rev":    o.rev,
		"seed":       o.seed,
		"workload":   o.workload,
		"scale":      o.scale,
		"trace":      o.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the fingerprint and every metric with its unit, writes the
// full result (and, when traced, the spans) under o.out, and ends with the
// one-line JSON result.
func report(res *result, o options, stdout io.Writer) error {
	host, err := json.Marshal(res.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "jobs %d failed_jobs %d\n", res.Attempted, res.Failed)

	stem := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, btoi(o.trace)))
	full, err := json.MarshalIndent(struct {
		*result
		Host map[string]any `json:"host"`
		Jobs []jobOut       `json:"jobs"`
	}{res, res.host, res.jobs}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", full, 0o644); err != nil {
		return err
	}
	if o.trace {
		if err := writeSpans(stem+".spans.jsonl", res.spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
