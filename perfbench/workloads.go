package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"cyclops/internal/aggregate"
	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	cmetrics "cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// engines lists every engine the benchmark knows, in the order jobs run.
var engines = []string{"hama", "cyclops", "cyclopsmt", "powergraph"}

// A workload is one named input and the jobs run on it.
type workload struct {
	Name string
	Why  string
	// Engines are the engines this workload runs, a subset of engines.
	Engines []string
	// inputs is how many inputs a run generates from its seed. Jobs cycle
	// through them, so one run's figures average over several graphs and
	// depend less on the shape of any one of them.
	inputs int
	// build generates the input graph; users is the user-side size of a
	// bipartite rating graph (0 otherwise).
	build func(scale float64, seed int64) (g *graph.Graph, users int, err error)
	// flat and mt are the cluster shapes of the flat engines and CyclopsMT.
	flat, mt cluster.Config
	// algo is "PR", "SSSP" or "ALS".
	algo string
	// metis selects partition.Multilevel and gas.GreedyVertexCut instead of
	// hash partitioning and the random vertex cut.
	metis bool
	// network is the transport every job uses.
	network transport.Network
	// checkpointEvery > 0 makes every job save a checkpoint through
	// checkpoint.Save that often, then restore the latest one.
	checkpointEvery int
}

const (
	prEps      = 1e-9
	prMaxSteps = 200
	// prTol bounds the L1 distance of a converged rank vector (total rank
	// mass 1) from the sequential reference. Cyclops' local stopping rule
	// leaves about 2e-4 on pagerank-wiki, Hama's global one about 1e-5.
	prTol       = 1e-3
	prRefIters  = 150
	alsTol      = 1e-9
	ssspMaxStep = 5000
)

var alsCfg = algorithms.ALSConfig{D: 8, Lambda: 0.05, Sweeps: 3}

var workloads = []*workload{
	{
		Name: "pagerank-wiki",
		Why: "PageRank on a power-law graph: every vertex is active every superstep and replication is highest, " +
			"so compute, parse, in-process queues and view building dominate",
		Engines: engines, inputs: 8,
		build: func(scale float64, seed int64) (*graph.Graph, int, error) {
			g, _, err := gen.Dataset("wiki", 0.5*scale, seed)
			return g, 0, err
		},
		flat: cluster.Flat(6, 8), mt: cluster.MT(6, 8, 2),
		algo: "PR",
	},
	{
		Name: "sssp-road-metis",
		Why: "SSSP on a road lattice over ~430 supersteps with a small frontier: per-superstep fixed cost, " +
			"the multilevel partitioner and checkpointing dominate",
		Engines: engines, inputs: 8,
		build: func(scale float64, seed int64) (*graph.Graph, int, error) {
			side := int(200 * math.Sqrt(scale))
			if side < 8 {
				side = 8
			}
			return gen.Road(side, side, 0, seed), 0, nil
		},
		flat: cluster.Flat(6, 8), mt: cluster.MT(6, 8, 2),
		algo: "SSSP", metis: true, checkpointEvery: 16,
	},
	{
		Name: "als-syngl-tcp",
		Why: "ALS on a bipartite rating graph over loopback TCP: 64-byte vector messages through RPC frame " +
			"encode/decode and dense linear algebra in compute",
		Engines: []string{"hama", "cyclops", "cyclopsmt"}, inputs: 1,
		build: func(scale float64, seed int64) (*graph.Graph, int, error) {
			g, meta, err := gen.Dataset("syn-gl", 8*scale, seed)
			return g, meta.Users, err
		},
		flat: cluster.Flat(2, 2), mt: cluster.MT(2, 2, 2),
		algo: "ALS", network: transport.TCPLoopback,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// reference holds the sequential result every job is checked against.
type reference struct {
	pr    []float64
	sssp  []float64
	als   [][]float64
	rmse  float64
	users int
}

func computeReference(w *workload, g *graph.Graph, users int) reference {
	r := reference{users: users}
	switch w.algo {
	case "PR":
		r.pr = algorithms.PageRankRef(g, prRefIters)
	case "SSSP":
		r.sssp = algorithms.SSSPRef(g, 0)
	case "ALS":
		cfg := alsCfg
		cfg.Users = users
		r.als = algorithms.ALSRef(g, cfg)
		r.rmse = algorithms.RMSE(g, users, r.als)
	}
	return r
}

// prError is the L1 distance of a rank vector from the reference.
func (r reference) prError(got []float64) (float64, error) {
	if len(got) != len(r.pr) {
		return math.Inf(1), fmt.Errorf("pagerank: %d ranks, want %d", len(got), len(r.pr))
	}
	d := algorithms.L1Distance(got, r.pr)
	if !(d <= prTol) {
		return d, fmt.Errorf("pagerank: L1 distance %g from the reference exceeds %g", d, prTol)
	}
	return d, nil
}

// ssspError is the largest distance difference; any is a failure.
func (r reference) ssspError(got []float64) (float64, error) {
	if len(got) != len(r.sssp) {
		return math.Inf(1), fmt.Errorf("sssp: %d distances, want %d", len(got), len(r.sssp))
	}
	var worst float64
	first := -1
	for v, want := range r.sssp {
		if got[v] == want {
			continue
		}
		d := math.Abs(got[v] - want)
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		if first < 0 {
			first = v
		}
		worst = math.Max(worst, d)
	}
	if first >= 0 {
		return worst, fmt.Errorf("sssp: vertex %d distance %g, want %g", first, got[first], r.sssp[first])
	}
	return 0, nil
}

// alsError is the RMSE difference from the reference factorisation.
func (r reference) alsError(g *graph.Graph, got [][]float64) (float64, error) {
	if len(got) != len(r.als) {
		return math.Inf(1), fmt.Errorf("als: %d vectors, want %d", len(got), len(r.als))
	}
	d := math.Abs(algorithms.RMSE(g, r.users, got) - r.rmse)
	if !(d <= alsTol) {
		return d, fmt.Errorf("als: RMSE differs from the reference by %g (limit %g)", d, alsTol)
	}
	return d, nil
}

// jobOut is one engine job: New plus Run on a loaded graph.
type jobOut struct {
	Engine      string
	Input       int
	Warmup      bool
	Traced      bool
	LoadS       float64
	NewS, RunS  float64
	Stats       transport.Snapshot
	Replication float64
	Replicas    int64
	LiveHeap    uint64
	Alloc       uint64
	GCCycles    uint64
	GCPauseNs   uint64
	ResultErr   float64
	Ckpt        ckptOut
	Error       string `json:",omitempty"` // Err's text, set when the job is recorded

	Err   error           `json:"-"`
	Trace *cmetrics.Trace `json:"-"`
	// Traced jobs only.
	tr    *tracer
	hooks *spanHooks
}

type ckptOut struct {
	Saves int
	Bytes int64
	LoadS float64
}

// JobS is the job's time to a verified solution from a loaded graph.
func (j jobOut) JobS() float64 { return j.NewS + j.RunS }

// engine is the part of the engines' public API a job drives.
type engine interface {
	Run() (*cmetrics.Trace, error)
	TransportStats() transport.Snapshot
	Close() error
}

// memSample reads the allocation counters outside every timed window.
type memSample struct{ alloc, cycles, pauseNs uint64 }

func readMem() memSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: s[0].Value.Uint64(), cycles: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// execute times build (the engine's New) and Run with a forced collection
// before each, so every job starts from the same heap state, and reads the
// live heap above base after set-up: the loaded graph plus the engine.
// check inspects the finished engine and returns the result error against
// the reference.
func execute[E engine](out *jobOut, base uint64, build func() (E, error), check func(E) (float64, error)) {
	tr := out.tr
	runtime.GC()
	m0 := readMem()
	id := tr.begin("new." + out.Engine)
	t0 := time.Now()
	e, err := build()
	out.NewS = time.Since(t0).Seconds()
	tr.end(id)
	m1 := readMem()
	if err != nil {
		out.Err = fmt.Errorf("%s: New: %w", out.Engine, err)
		return
	}
	defer e.Close()
	runtime.GC()
	out.LiveHeap = liveHeap() - base
	m2 := readMem()
	id = tr.begin("run." + out.Engine)
	t1 := time.Now()
	trace, err := e.Run()
	out.RunS = time.Since(t1).Seconds()
	tr.end(id)
	m3 := readMem()
	out.Alloc = m1.alloc - m0.alloc + m3.alloc - m2.alloc
	out.GCCycles = m1.cycles - m0.cycles + m3.cycles - m2.cycles
	out.GCPauseNs = m1.pauseNs - m0.pauseNs + m3.pauseNs - m2.pauseNs
	if err != nil {
		out.Err = fmt.Errorf("%s: Run: %w", out.Engine, err)
		return
	}
	out.Trace = trace
	out.Stats = e.TransportStats()
	out.ResultErr, out.Err = check(e)
	if out.Err != nil {
		out.Err = fmt.Errorf("%s: %w", out.Engine, out.Err)
	}
}

// timedPartitioner wraps a vertex partitioner in a "partition" span and
// keeps the assignment for the replication factor.
type timedPartitioner struct {
	inner  partition.Partitioner
	tr     *tracer
	assign *partition.Assignment
}

func (p *timedPartitioner) Name() string { return p.inner.Name() }

func (p *timedPartitioner) Partition(g *graph.Graph, k int) (*partition.Assignment, error) {
	id := p.tr.begin("partition")
	defer p.tr.end(id)
	a, err := p.inner.Partition(g, k)
	p.assign = a
	return a, err
}

// timedCut wraps a GAS edge partitioner in a "partition" span.
type timedCut struct {
	inner gas.EdgePartitioner
	tr    *tracer
}

func (c timedCut) Name() string { return c.inner.Name() }

func (c timedCut) PartitionEdges(g *graph.Graph, k int) []int {
	id := c.tr.begin("partition")
	defer c.tr.end(id)
	return c.inner.PartitionEdges(g, k)
}

// checkpointer saves one engine's snapshots under dir with checkpoint.Save,
// each in a "checkpoint.save" span, and restores the latest afterwards.
type checkpointer struct {
	dir   string
	tr    *tracer
	saves int
}

func save[S any](c *checkpointer, step int, s S) error {
	id := c.tr.begin("checkpoint.save")
	defer c.tr.end(id)
	c.saves++
	return checkpoint.Save(c.dir, step, s)
}

// restore loads the latest checkpoint back, outside the job's timed
// windows, and reports the saves' count, bytes and the load time.
func restore[S any](c *checkpointer, stepOf func(S) int) (ckptOut, error) {
	out := ckptOut{Saves: c.saves}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return out, fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			out.Bytes += info.Size()
		}
	}
	id := c.tr.begin("checkpoint.load")
	t0 := time.Now()
	s, step, err := checkpoint.LoadLatest[S](c.dir)
	out.LoadS = time.Since(t0).Seconds()
	c.tr.end(id)
	if err != nil {
		return out, err
	}
	if stepOf(s) != step {
		return out, fmt.Errorf("checkpoint: latest file is step %d but holds step %d", step, stepOf(s))
	}
	return out, os.RemoveAll(c.dir)
}

// runJob loads the input with graph.ReadBinary and runs one engine on it.
// tr is nil for an untraced job.
func runJob(w *workload, eng string, input []byte, ref reference, tr *tracer, ckptRoot string) jobOut {
	out := jobOut{Engine: eng, Traced: tr != nil, tr: tr}
	runtime.GC()
	// The benchmark's own inputs and references stay live throughout; the
	// job's live heap is measured from this baseline.
	base := liveHeap()
	id := tr.begin("graph.load")
	t0 := time.Now()
	g, err := graph.ReadBinary(bytes.NewReader(input))
	out.LoadS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		out.Err = fmt.Errorf("graph: %w", err)
		return out
	}
	var hooks *spanHooks
	if tr != nil {
		hooks = newSpanHooks(tr)
		out.hooks = hooks
	}
	cc := w.flat
	if eng == "cyclopsmt" {
		cc = w.mt
	}
	var vp partition.Partitioner = partition.Hash{}
	var cut gas.EdgePartitioner = gas.RandomVertexCut{}
	if w.metis {
		vp, cut = partition.Multilevel{}, gas.GreedyVertexCut{}
	}
	part := &timedPartitioner{inner: vp, tr: tr}
	ecut := timedCut{inner: cut, tr: tr}
	var ck *checkpointer
	if w.checkpointEvery > 0 {
		ck = &checkpointer{dir: filepath.Join(ckptRoot, eng), tr: tr}
		if err := os.RemoveAll(ck.dir); err != nil {
			out.Err = err
			return out
		}
	}
	switch w.algo + "/" + eng {
	case "PR/hama":
		execute(&out, base, func() (*bsp.Engine[float64, float64], error) {
			return bsp.New[float64, float64](g, algorithms.PageRankBSP{Eps: prEps}, bsp.Config[float64, float64]{
				Cluster: cc, Partitioner: part, Network: w.network, MaxSupersteps: prMaxSteps,
				Halt:     aggregate.GlobalErrorHalt(algorithms.ErrorAggregator, g.NumVertices(), prEps),
				MsgCodec: graph.Float64Codec{}, Equal: prEqual, Hooks: hooksOrNil(hooks),
			})
		}, func(e *bsp.Engine[float64, float64]) (float64, error) {
			out.Replication = part.assign.ReplicationFactor(g)
			return ref.prError(e.Values())
		})
	case "PR/cyclops", "PR/cyclopsmt":
		execute(&out, base, func() (*cyclops.Engine[float64, float64], error) {
			return cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: prEps}, cyclops.Config[float64, float64]{
				Cluster: cc, Partitioner: part, Network: w.network, MaxSupersteps: prMaxSteps,
				MsgCodec: graph.Float64Codec{}, Equal: prEqual, Hooks: hooksOrNil(hooks),
			})
		}, func(e *cyclops.Engine[float64, float64]) (float64, error) {
			out.Replicas, out.Replication = e.Ingress().Replicas, e.ReplicationFactor()
			return ref.prError(e.Values())
		})
	case "PR/powergraph":
		execute(&out, base, func() (*gas.Engine[algorithms.PRValue, float64], error) {
			return gas.New[algorithms.PRValue, float64](g, algorithms.NewPageRankGAS(g, prMaxSteps, prEps),
				gas.Config[algorithms.PRValue, float64]{
					Cluster: cc, Partitioner: ecut, Network: w.network, MaxSupersteps: prMaxSteps,
					ValCodec: algorithms.PRValueCodec{}, AccCodec: graph.Float64Codec{}, Hooks: hooksOrNil(hooks),
				})
		}, func(e *gas.Engine[algorithms.PRValue, float64]) (float64, error) {
			out.Replicas, out.Replication = e.Mirrors(), e.ReplicationFactor()
			return ref.prError(algorithms.Ranks(e.Values()))
		})
	case "SSSP/hama":
		type state = bsp.State[float64, float64]
		execute(&out, base, func() (*bsp.Engine[float64, float64], error) {
			return bsp.New[float64, float64](g, algorithms.SSSPBSP{Source: 0}, bsp.Config[float64, float64]{
				Cluster: cc, Partitioner: part, Network: w.network, MaxSupersteps: ssspMaxStep,
				MsgCodec: graph.Float64Codec{}, Hooks: hooksOrNil(hooks),
				CheckpointEvery: w.checkpointEvery,
				Checkpoints:     func(s state) error { return save(ck, s.Step, s) },
			})
		}, func(e *bsp.Engine[float64, float64]) (float64, error) {
			out.Replication = part.assign.ReplicationFactor(g)
			var err error
			if out.Ckpt, err = restore(ck, func(s state) int { return s.Step }); err != nil {
				return 0, err
			}
			return ref.ssspError(e.Values())
		})
	case "SSSP/cyclops", "SSSP/cyclopsmt":
		type state = cyclops.State[float64, float64]
		execute(&out, base, func() (*cyclops.Engine[float64, float64], error) {
			return cyclops.New[float64, float64](g, algorithms.SSSPCyclops{Source: 0}, cyclops.Config[float64, float64]{
				Cluster: cc, Partitioner: part, Network: w.network, MaxSupersteps: ssspMaxStep,
				MsgCodec: graph.Float64Codec{}, Hooks: hooksOrNil(hooks),
				CheckpointEvery: w.checkpointEvery,
				Checkpoints:     func(s state) error { return save(ck, s.Step, s) },
			})
		}, func(e *cyclops.Engine[float64, float64]) (float64, error) {
			out.Replicas, out.Replication = e.Ingress().Replicas, e.ReplicationFactor()
			var err error
			if out.Ckpt, err = restore(ck, func(s state) int { return s.Step }); err != nil {
				return 0, err
			}
			return ref.ssspError(e.Values())
		})
	case "SSSP/powergraph":
		type state = gas.State[float64]
		execute(&out, base, func() (*gas.Engine[float64, float64], error) {
			return gas.New[float64, float64](g, algorithms.SSSPGAS{Source: 0}, gas.Config[float64, float64]{
				Cluster: cc, Partitioner: ecut, Network: w.network, MaxSupersteps: ssspMaxStep,
				ValCodec: graph.Float64Codec{}, AccCodec: graph.Float64Codec{}, Hooks: hooksOrNil(hooks),
				CheckpointEvery: w.checkpointEvery,
				Checkpoints:     func(s state) error { return save(ck, s.Step, s) },
			})
		}, func(e *gas.Engine[float64, float64]) (float64, error) {
			out.Replicas, out.Replication = e.Mirrors(), e.ReplicationFactor()
			var err error
			if out.Ckpt, err = restore(ck, func(s state) int { return s.Step }); err != nil {
				return 0, err
			}
			return ref.ssspError(e.Values())
		})
	case "ALS/hama":
		cfg := alsCfg
		cfg.Users = ref.users
		execute(&out, base, func() (*bsp.Engine[[]float64, algorithms.ALSMsg], error) {
			return bsp.New[[]float64, algorithms.ALSMsg](g, algorithms.ALSBSP{Cfg: cfg}, bsp.Config[[]float64, algorithms.ALSMsg]{
				Cluster: cc, Partitioner: part, Network: w.network, MaxSupersteps: cfg.TotalSupersteps() + 4,
				MsgCodec: algorithms.ALSMsgCodec{}, Hooks: hooksOrNil(hooks),
			})
		}, func(e *bsp.Engine[[]float64, algorithms.ALSMsg]) (float64, error) {
			out.Replication = part.assign.ReplicationFactor(g)
			return ref.alsError(g, e.Values())
		})
	case "ALS/cyclops", "ALS/cyclopsmt":
		cfg := alsCfg
		cfg.Users = ref.users
		execute(&out, base, func() (*cyclops.Engine[[]float64, []float64], error) {
			return cyclops.New[[]float64, []float64](g, algorithms.ALSCyclops{Cfg: cfg}, cyclops.Config[[]float64, []float64]{
				Cluster: cc, Partitioner: part, Network: w.network, MaxSupersteps: cfg.TotalSupersteps(),
				MsgCodec: graph.Float64SliceCodec{}, Hooks: hooksOrNil(hooks),
			})
		}, func(e *cyclops.Engine[[]float64, []float64]) (float64, error) {
			out.Replicas, out.Replication = e.Ingress().Replicas, e.ReplicationFactor()
			return ref.alsError(g, e.Values())
		})
	default:
		out.Err = fmt.Errorf("workload %s has no %s job", w.Name, eng)
	}
	return out
}

// hooksOrNil keeps an untraced job's Hooks a true nil interface.
func hooksOrNil(h *spanHooks) obs.Hooks {
	if h == nil {
		return nil
	}
	return h
}

func prEqual(a, b float64) bool { return math.Abs(a-b) < prEps }
