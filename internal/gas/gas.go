// Package gas implements the comparator the paper evaluates against in §6.12:
// a PowerGraph-like synchronous Gather-Apply-Scatter engine over a vertex-cut
// partition. Edges (not vertices) are assigned to workers; every vertex gets
// one master and a mirror on each other worker that holds one of its edges.
// Each superstep a master exchanges five messages with every mirror — gather
// request, gather partial, apply push, scatter request, and activation
// return (§2.3) — versus Cyclops' at most one. The engine reproduces that
// 5:1 traffic ratio with real counted messages, which is what Table 4 and
// Figure 4 compare.
package gas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"cyclops/internal/cluster"
	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// Program is a GAS vertex program.
type Program[V, G any] interface {
	// Init returns the initial value and activation of vertex id.
	Init(id graph.ID, g *graph.Graph) (V, bool)
	// Gather maps one in-edge (src → current vertex) to an accumulator
	// contribution. srcVal is the locally cached value of src.
	Gather(src graph.ID, srcVal V, weight float64) G
	// Sum combines two accumulator values (commutative and associative).
	Sum(a, b G) G
	// Apply computes the vertex's new value from the gathered accumulator.
	// hasAcc is false when the vertex has no in-edges anywhere. It returns
	// the new value and whether to activate out-neighbors in scatter.
	Apply(id graph.ID, old V, acc G, hasAcc bool, step int) (V, bool)
}

// EdgePartitioner assigns each edge to a worker (a vertex-cut).
type EdgePartitioner interface {
	Name() string
	// PartitionEdges returns, for each edge of g (in g.Edges() order), the
	// worker it lands on.
	PartitionEdges(g *graph.Graph, k int) []int
}

// RandomVertexCut hashes each edge independently — PowerGraph's default
// random edge placement.
type RandomVertexCut struct{}

// Name implements EdgePartitioner.
func (RandomVertexCut) Name() string { return "random-cut" }

// PartitionEdges implements EdgePartitioner.
func (RandomVertexCut) PartitionEdges(g *graph.Graph, k int) []int {
	out := make([]int, g.NumEdges())
	i := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(graph.ID(v)) {
			h := (uint64(v)*0x9e3779b97f4a7c15 ^ uint64(u)*0xc2b2ae3d27d4eb4f) * 0xff51afd7ed558ccd
			out[i] = int(h % uint64(k))
			i++
		}
	}
	return out
}

// GreedyVertexCut is the coordinated-greedy heuristic PowerGraph uses for
// its "heuristic partition" rows in Table 4: place each edge on a worker
// that already hosts one of its endpoints, breaking ties by load.
type GreedyVertexCut struct{}

// Name implements EdgePartitioner.
func (GreedyVertexCut) Name() string { return "greedy-cut" }

// PartitionEdges implements EdgePartitioner.
func (GreedyVertexCut) PartitionEdges(g *graph.Graph, k int) []int {
	out := make([]int, g.NumEdges())
	load := make([]int64, k)
	// maxLoad caps per-worker edges at ~10% over the ideal share; without a
	// balance constraint the greedy rule degenerates (any connected graph
	// would collapse onto the first worker).
	maxLoad := int64(float64(g.NumEdges())/float64(k)*1.1) + 1
	// present[v] is a bitset of workers already hosting v (k ≤ 64 workers
	// fall in one word; larger k degrades to hashing the overflow).
	present := make([]uint64, g.NumVertices())
	pick := func(mask uint64) int {
		best, bestLoad := -1, int64(1<<62)
		for w := 0; w < k && w < 64; w++ {
			if mask&(1<<w) != 0 && load[w] < bestLoad && load[w] < maxLoad {
				best, bestLoad = w, load[w]
			}
		}
		return best
	}
	i := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(graph.ID(v)) {
			both := present[v] & present[u]
			either := present[v] | present[u]
			w := -1
			if both != 0 {
				w = pick(both)
			} else if either != 0 {
				w = pick(either)
			}
			if w < 0 {
				// Fresh endpoints: lightest worker.
				w = 0
				for c := 1; c < k; c++ {
					if load[c] < load[w] {
						w = c
					}
				}
			}
			out[i] = w
			load[w]++
			if w < 64 {
				present[v] |= 1 << w
				present[u] |= 1 << w
			}
			i++
		}
	}
	return out
}

// Config tunes an engine run.
type Config[V, G any] struct {
	Cluster       cluster.Config
	Partitioner   EdgePartitioner // default RandomVertexCut
	MaxSupersteps int
	// Equal suppresses apply pushes for unchanged values when set. The real
	// PowerGraph always pushes (its mirrors need the value for gather), so
	// leaving it nil reproduces the paper's message counts.
	Equal func(a, b V) bool
	// Residual maps a master's previous and newly applied values to a scalar
	// distance (|Δ| for scalar algorithms). When set, each superstep's
	// StepStats carries the quantiles of this distribution over all Apply
	// calls — the convergence telemetry behind Figure 3. Optional.
	Residual func(old, new V) float64
	// ValCodec/AccCodec, when both set, switch the transport to the
	// hand-rolled binary frame format: a gasMsg is framed as 1B kind + 4B
	// slot + a kind-dependent payload (apply pushes carry Val, gather
	// partials carry Has+Acc, the request/activation kinds are payload-free),
	// and wire accounting charges the exact frame bytes. Required by
	// TCPLoopback (New fails with transport.ErrNoCodec); in-process, nil
	// keeps wire == payload.
	ValCodec graph.Codec[V]
	AccCodec graph.Codec[G]
	// Network selects in-process queues (default) or binary frames over TCP
	// loopback.
	Network   transport.Network
	CostModel *metrics.CostModel
	OnStep    func(step int, e *Engine[V, G])
	// Hooks receives live instrumentation events (run/superstep/phase spans
	// and per-worker stats). nil disables observation.
	Hooks obs.Hooks
	// Audit verifies mirror coherence after every superstep: each mirror's
	// cached value must exactly equal its master's (the GAS analogue of
	// Cyclops' replica invariant — apply pushes are PowerGraph's only value
	// channel, so a divergent mirror means a lost or corrupted push). A
	// violation fails the run with *obs.AuditError. Off by default.
	Audit bool
	// CheckpointEvery saves state every k supersteps to Checkpoints (k>0).
	// Mirrors and messages are excluded: mirrors are rebuilt from masters on
	// recovery, the vertex-cut analogue of §3.6.
	CheckpointEvery int
	// Checkpoints receives snapshots.
	Checkpoints func(State[V]) error
	// Recover loads the state to roll back to after a transient transport
	// fault at a barrier (typically checkpoint.LoadLatest over the same
	// directory Checkpoints writes into). When set, the engine restores the
	// state, rebuilds every mirror from its master, and replays; when nil,
	// any transport fault fails the run. Requires InProcess.
	Recover func() (State[V], error)
	// MaxRecoveries bounds recovery attempts per run (default 3); a fault
	// beyond the budget fails the run with the underlying transport error.
	MaxRecoveries int
	// FaultPlan injects a deterministic fault schedule at the transport
	// boundary (testing/chaos only). Same plan ⇒ same faults.
	FaultPlan *fault.Plan
}

// message kinds: the five per-mirror messages of §2.3.
const (
	kindGatherReq = iota
	kindGatherPartial
	kindApplyPush
	kindScatterReq
	kindActivate
)

type gasMsg[V, G any] struct {
	Kind int8
	Slot int32 // local slot at the receiving worker
	Val  V     // apply push payload
	Acc  G     // gather partial payload
	Has  bool  // accumulator non-empty
}

// gasCodec frames a gasMsg as 1B kind + 4B slot + a kind-dependent payload,
// so the three payload-free request kinds cost 5 bytes instead of a full
// message estimate — the framing behind the Table 4 wire comparison.
type gasCodec[V, G any] struct {
	val graph.Codec[V]
	acc graph.Codec[G]
}

//lint:hotpath
func (c gasCodec[V, G]) EncodedSize(m gasMsg[V, G]) int {
	switch m.Kind {
	case kindApplyPush:
		return 5 + c.val.EncodedSize(m.Val)
	case kindGatherPartial:
		return 6 + c.acc.EncodedSize(m.Acc)
	default:
		return 5
	}
}

//lint:hotpath
func (c gasCodec[V, G]) Append(dst []byte, m gasMsg[V, G]) []byte {
	dst = append(dst, byte(m.Kind))
	dst = graph.AppendUint32(dst, uint32(m.Slot))
	switch m.Kind {
	case kindApplyPush:
		dst = c.val.Append(dst, m.Val)
	case kindGatherPartial:
		var has byte
		if m.Has {
			has = 1
		}
		dst = append(dst, has)
		dst = c.acc.Append(dst, m.Acc)
	}
	return dst
}

//lint:hotpath
func (c gasCodec[V, G]) Decode(src []byte) (gasMsg[V, G], int, error) {
	var m gasMsg[V, G]
	if len(src) < 5 {
		return m, 0, graph.ErrShortBuffer
	}
	m.Kind = int8(src[0])
	slot, err := graph.Uint32At(src[1:])
	if err != nil {
		return m, 0, err
	}
	m.Slot = int32(slot)
	n := 5
	switch m.Kind {
	case kindApplyPush:
		val, vn, verr := c.val.Decode(src[5:])
		if verr != nil {
			return m, 0, verr
		}
		m.Val = val
		n += vn
	case kindGatherPartial:
		if len(src) < 6 {
			return m, 0, graph.ErrShortBuffer
		}
		m.Has = src[5] != 0
		acc, an, aerr := c.acc.Decode(src[6:])
		if aerr != nil {
			return m, 0, aerr
		}
		m.Acc = acc
		n += 1 + an
	}
	return m, n, nil
}

func gasWrapCodec[V, G any](val graph.Codec[V], acc graph.Codec[G]) graph.Codec[gasMsg[V, G]] {
	if val == nil || acc == nil {
		return nil
	}
	return gasCodec[V, G]{val: val, acc: acc}
}

// localVertex is one worker's copy of a vertex. Its adjacency (in-edges,
// out-slots, mirror refs) lives in the workerState CSRs, indexed by slot.
type localVertex[V any] struct {
	id     graph.ID
	cache  V
	master bool
	// masterWorker/masterSlot route mirror→master messages.
	masterWorker int32
	masterSlot   int32
	// active is master-side activation for the current superstep.
	active bool
}

type mirrorRef struct {
	worker int32
	slot   int32
}

type gasEdge struct {
	srcSlot int32
	weight  float64
}

type workerState[V, G any] struct {
	verts  []localVertex[V]
	slotOf []int32 // global id → local slot, -1 when the worker has no copy

	// Immutable CSR adjacency, flattened once after edge placement: per slot,
	// the local in-edges, the local out-slots, and (masters only) the mirror
	// locations.
	inEdges  graph.CSR[gasEdge]
	outSlots graph.CSR[int32]
	mirrors  graph.CSR[mirrorRef]

	// Superstep scratch: epoch-stamped dense arrays replacing the per-step
	// maps. An acc/scat entry is live iff its stamp equals the engine's
	// current epoch; ascending-slot sweeps over the stamped entries visit
	// exactly the slots the old sorted-map iteration did, in the same order.
	accVal      []G
	accHas      []bool
	accStamp    []uint32
	scat        []bool // activate out-neighbors in scatter?
	scatStamp   []uint32
	queuedStamp []uint32 // activation return already queued this epoch
	nextActive  []bool   // master slots activated for the next superstep

	// outA/outB are the per-destination send batches, alternating by round
	// parity: a round's batches are still being read while the next round
	// refills its own set, but the round after that may safely reuse them.
	outA, outB [][]gasMsg[V, G]
}

// Engine executes a GAS Program over a vertex-cut partition.
type Engine[V, G any] struct {
	g     *graph.Graph
	prog  Program[V, G]
	cfg   Config[V, G]
	ws    []*workerState[V, G]
	tr    transport.Interface[gasMsg[V, G]]
	inj   *fault.Injector[gasMsg[V, G]]
	trace *metrics.Trace
	model metrics.CostModel

	mirrors     int64   // total mirror count (replication metric)
	mirrorsPerW []int64 // mirrors hosted per worker (skew reporting)
	step        int
	// epoch stamps the workers' dense superstep scratch; it increments at the
	// top of every superstep (including replays after recovery), so stale
	// entries from earlier steps never read as live.
	epoch uint32

	// runSeq numbers Run calls on this engine (1-based); it becomes the
	// span stream's Run id, so restored engines keep distinct run spans.
	runSeq int64
}

// New builds the engine: cuts edges across workers, creates masters and
// mirrors, and seeds every copy with the program's initial value.
func New[V, G any](g *graph.Graph, prog Program[V, G], cfg Config[V, G]) (*Engine[V, G], error) {
	if g == nil || prog == nil {
		return nil, errors.New("gas: graph and program are required")
	}
	cfg.Cluster = cfg.Cluster.Normalize()
	if cfg.Partitioner == nil {
		cfg.Partitioner = RandomVertexCut{}
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 100
	}
	k := cfg.Cluster.Workers()
	if cfg.Network != transport.InProcess && cfg.CheckpointEvery > 0 {
		return nil, errors.New("gas: checkpointing requires the in-process network")
	}
	if cfg.Network != transport.InProcess && cfg.Recover != nil {
		return nil, errors.New("gas: recovery requires the in-process network")
	}
	tr, err := transport.New[gasMsg[V, G]](cfg.Network, k, transport.GlobalQueue, nil,
		gasWrapCodec[V, G](cfg.ValCodec, cfg.AccCodec))
	if err != nil {
		return nil, fmt.Errorf("gas: transport: %w", err)
	}
	var inj *fault.Injector[gasMsg[V, G]]
	if cfg.FaultPlan != nil {
		inj = fault.Wrap(tr, *cfg.FaultPlan)
		tr = inj
	}
	e := &Engine[V, G]{
		g:           g,
		prog:        prog,
		cfg:         cfg,
		ws:          make([]*workerState[V, G], k),
		tr:          tr,
		inj:         inj,
		trace:       &metrics.Trace{Engine: "powergraph", Workers: k},
		model:       metrics.DefaultCostModel(),
		mirrorsPerW: make([]int64, k),
	}
	if cfg.CostModel != nil {
		e.model = *cfg.CostModel
	}
	n := g.NumVertices()
	for w := range e.ws {
		slotOf := make([]int32, n)
		for i := range slotOf {
			slotOf[i] = -1
		}
		e.ws[w] = &workerState[V, G]{slotOf: slotOf}
	}

	// Adjacency is accumulated in per-slot rows and flattened into immutable
	// CSR arrays below, preserving insertion order exactly.
	inRows := make([][][]gasEdge, k)
	outRows := make([][][]int32, k)
	mirRows := make([][][]mirrorRef, k)
	ensure := func(w int, id graph.ID) int32 {
		ws := e.ws[w]
		if s := ws.slotOf[id]; s >= 0 {
			return s
		}
		s := int32(len(ws.verts))
		ws.slotOf[id] = s
		ws.verts = append(ws.verts, localVertex[V]{id: id, masterWorker: -1})
		inRows[w] = append(inRows[w], nil)
		outRows[w] = append(outRows[w], nil)
		mirRows[w] = append(mirRows[w], nil)
		return s
	}

	// Place edges; create local copies of both endpoints.
	assign := cfg.Partitioner.PartitionEdges(g, k)
	i := 0
	for v := 0; v < n; v++ {
		ns := g.OutNeighbors(graph.ID(v))
		wts := g.OutWeights(graph.ID(v))
		for j, u := range ns {
			w := assign[i]
			i++
			sv := ensure(w, graph.ID(v))
			su := ensure(w, u)
			inRows[w][su] = append(inRows[w][su], gasEdge{srcSlot: sv, weight: wts[j]})
			outRows[w][sv] = append(outRows[w][sv], su)
		}
	}
	// Isolated vertices still need a master somewhere.
	for v := 0; v < n; v++ {
		hosted := false
		for w := 0; w < k; w++ {
			if e.ws[w].slotOf[v] >= 0 {
				hosted = true
				break
			}
		}
		if !hosted {
			ensure(int(uint64(v)%uint64(k)), graph.ID(v))
		}
	}

	// Elect masters (lowest worker id hosting the vertex, as a stand-in for
	// PowerGraph's arbitrary election) and wire mirrors.
	for v := 0; v < n; v++ {
		masterW := -1
		for w := 0; w < k; w++ {
			if e.ws[w].slotOf[v] >= 0 {
				masterW = w
				break
			}
		}
		ms := e.ws[masterW].slotOf[v]
		master := &e.ws[masterW].verts[ms]
		master.master = true
		master.masterWorker = int32(masterW)
		master.masterSlot = ms
		for w := masterW + 1; w < k; w++ {
			if s := e.ws[w].slotOf[v]; s >= 0 {
				mirror := &e.ws[w].verts[s]
				mirror.masterWorker = int32(masterW)
				mirror.masterSlot = ms
				mirRows[masterW][ms] = append(mirRows[masterW][ms], mirrorRef{worker: int32(w), slot: s})
				e.mirrors++
				e.mirrorsPerW[w]++
			}
		}
	}

	// Flatten adjacency and allocate the superstep scratch once.
	for w := range e.ws {
		ws := e.ws[w]
		ws.inEdges = graph.CSRFromRows(inRows[w])
		ws.outSlots = graph.CSRFromRows(outRows[w])
		ws.mirrors = graph.CSRFromRows(mirRows[w])
		nv := len(ws.verts)
		ws.accVal = make([]G, nv)
		ws.accHas = make([]bool, nv)
		ws.accStamp = make([]uint32, nv)
		ws.scat = make([]bool, nv)
		ws.scatStamp = make([]uint32, nv)
		ws.queuedStamp = make([]uint32, nv)
		ws.nextActive = make([]bool, nv)
		ws.outA = make([][]gasMsg[V, G], k)
		ws.outB = make([][]gasMsg[V, G], k)
	}

	// Seed values on every copy.
	for _, ws := range e.ws {
		for s := range ws.verts {
			val, act := prog.Init(ws.verts[s].id, g)
			ws.verts[s].cache = val
			if ws.verts[s].master {
				ws.verts[s].active = act
			}
		}
	}
	return e, nil
}

// Graph returns the input graph.
func (e *Engine[V, G]) Graph() *graph.Graph { return e.g }

// Trace returns per-superstep statistics.
func (e *Engine[V, G]) Trace() *metrics.Trace { return e.trace }

// Mirrors returns the total mirror count; Mirrors()/|V| is PowerGraph's
// replication factor (Table 4's "AVG #Replicas" column).
func (e *Engine[V, G]) Mirrors() int64 { return e.mirrors }

// ReplicationFactor returns mirrors per vertex.
func (e *Engine[V, G]) ReplicationFactor() float64 {
	if e.g.NumVertices() == 0 {
		return 0
	}
	return float64(e.mirrors) / float64(e.g.NumVertices())
}

// edgeBalance reports the per-worker edge-load imbalance (max/mean of local
// in-edge counts, ≥ 1). The vertex-cut balances edges, not vertices, so this —
// not a vertex count — is the quality figure RunInfo.PartitionBalance carries.
func (e *Engine[V, G]) edgeBalance() float64 {
	if len(e.ws) == 0 {
		return 1
	}
	var sum, max int64
	for _, ws := range e.ws {
		load := int64(ws.inEdges.NumItems())
		sum += load
		if load > max {
			max = load
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(e.ws))
	return float64(max) / mean
}

// TransportStats exposes raw traffic counters.
func (e *Engine[V, G]) TransportStats() transport.Snapshot { return e.tr.Stats().Snapshot() }

// Values assembles the global vertex values from the masters.
func (e *Engine[V, G]) Values() []V {
	out := make([]V, e.g.NumVertices())
	for _, ws := range e.ws {
		for s := range ws.verts {
			if ws.verts[s].master {
				out[ws.verts[s].id] = ws.verts[s].cache
			}
		}
	}
	return out
}

// Run executes synchronous GAS supersteps until no master is active or the
// superstep budget is exhausted.
func (e *Engine[V, G]) Run() (*metrics.Trace, error) {
	k := e.cfg.Cluster.Workers()
	hooks := e.cfg.Hooks
	// runStart anchors span offsets; runWall accumulates the accounted run
	// duration (sum of superstep walls), so the closing run span reconciles
	// with timings.csv totals by construction.
	runStart := time.Now()
	var runWall time.Duration
	if hooks != nil {
		e.runSeq++
		hooks.OnRunStart(obs.RunInfo{
			Engine:   e.trace.Engine,
			Workers:  k,
			Vertices: e.g.NumVertices(),
			Edges:    e.g.NumEdges(),
			Replicas: e.mirrors,
			// Every mirror caches its master's value V, so the vertex-cut's
			// replicated-value memory is mirrors × sizeof(V) — the GAS side
			// of the Table 4/5 memory comparison.
			ReplicaValueBytes: e.mirrors * int64(unsafe.Sizeof(*new(V))),
			WorkerReplicas:    append([]int64(nil), e.mirrorsPerW...),
			// EdgeCut stays zero: under a vertex-cut every edge is
			// worker-local by construction; the partition quality lives in
			// the mirror counts and the edge balance instead.
			PartitionBalance: e.edgeBalance(),
		})
		hooks.OnSpanStart(obs.RunSpan(e.runSeq, 0))
	}
	stopReason := obs.ReasonMaxSupersteps

	// prevComm anchors the per-superstep traffic deltas; starting from the
	// current snapshot keeps deltas correct across resumed runs.
	var prevComm transport.MatrixSnapshot
	if hooks != nil {
		prevComm = e.tr.Stats().Matrix().Snapshot()
	}

	maxRecoveries := e.cfg.MaxRecoveries
	if maxRecoveries <= 0 {
		maxRecoveries = 3
	}
	recoveries := 0

	// Steady-state scratch, allocated once and reused every superstep. The
	// per-worker counters are cleared at the top of each step; the inbound
	// buffer only holds the transport's freshly drained batch slices; the
	// residual rows reset with [:0]. Nothing downstream retains any of it.
	inbound := make([][][]gasMsg[V, G], k)
	var residPerW [][]float64
	var resAll []float64
	if e.cfg.Residual != nil {
		residPerW = make([][]float64, k)
	}
	var sentPerW, unitsPerW, recvPerW, batchPerW, activePerW, syncPerW []int64
	var busyPerW, sendBusy, computeDur []time.Duration
	var serNs0, serNs []int64
	var delivs [][]span.Delivery
	if hooks != nil {
		sentPerW = make([]int64, k)
		unitsPerW = make([]int64, k)
		recvPerW = make([]int64, k)
		batchPerW = make([]int64, k)
		activePerW = make([]int64, k)
		syncPerW = make([]int64, k)
		busyPerW = make([]time.Duration, k)
		sendBusy = make([]time.Duration, k)
		computeDur = make([]time.Duration, k)
		serNs0 = make([]int64, k)
		serNs = make([]int64, k)
		delivs = make([][]span.Delivery, k)
	}

	// Cumulative per-vertex heat counters (hooks on only), all attributed at
	// the vertex's master worker: every round either runs at the master
	// (request/apply/scatter emission) or drains into it (partials,
	// activation returns), so each entry has exactly one writer per round.
	// masterOf maps a vertex to the worker holding its master.
	var heatMsgs, heatUnits []int64
	var masterOf []int32
	if hooks != nil {
		heatMsgs = make([]int64, e.g.NumVertices())
		heatUnits = make([]int64, e.g.NumVertices())
		masterOf = make([]int32, e.g.NumVertices())
		for w, ws := range e.ws {
			for s := range ws.verts {
				if ws.verts[s].master {
					masterOf[ws.verts[s].id] = int32(w)
				}
			}
		}
	}

	for e.step < e.cfg.MaxSupersteps {
		if e.inj != nil {
			e.inj.BeginStep(e.step)
		}
		e.epoch++
		stats := metrics.StepStats{Step: e.step}
		var msgs, computeUnits atomic.Int64
		var active int64
		// Span bookkeeping (zeroed when hooks are on): all five GAS rounds of
		// a superstep fold into one Compute span per worker, with the send
		// share split out from the per-round busy time.
		sd := obs.StepSpanData{Run: e.runSeq, Step: e.step}
		if hooks != nil {
			clear(sentPerW)
			clear(unitsPerW)
			clear(recvPerW)
			clear(batchPerW)
			clear(activePerW)
			clear(syncPerW)
			clear(busyPerW)
			clear(sendBusy)
			for w := range delivs {
				delivs[w] = delivs[w][:0]
			}
		}
		for w, ws := range e.ws {
			for s := range ws.verts {
				if ws.verts[s].master && ws.verts[s].active {
					active++
					if activePerW != nil {
						activePerW[w]++
					}
				}
			}
		}
		if active == 0 {
			stopReason = obs.ReasonNoActive
			break
		}
		stats.Active = active
		if hooks != nil {
			hooks.OnSuperstepStart(e.step)
			sd.StepStart = time.Since(runStart)
			hooks.OnSpanStart(obs.StepSpan(e.runSeq, e.step, sd.StepStart))
			sd.ComputeStart = time.Since(runStart)
			sd.SendStart = sd.ComputeStart // the five rounds interleave send and compute
			// Tag this superstep's messages with its causal context; each
			// round's drain links Deliver spans back to the sender's Send
			// span (all five rounds drain within the step).
			for w := 0; w < k; w++ {
				e.tr.Tag(w, span.Context{Run: e.runSeq, Step: int32(e.step), Worker: int32(w)})
				serNs0[w] = e.tr.SerializeNanos(w)
			}
		}

		cmpStart := time.Now()

		// Round 1 — gather requests: masters ask mirrors for partials.
		e.parallelTimed(k, busyPerW, func(w int) {
			ws := e.ws[w]
			out := resetOut(ws.outA)
			for s := range ws.verts {
				lv := &ws.verts[s]
				if !lv.master || !lv.active {
					continue
				}
				mirs := ws.mirrors.Row(s)
				for _, m := range mirs {
					out[m.worker] = append(out[m.worker], gasMsg[V, G]{Kind: kindGatherReq, Slot: m.slot})
				}
				if heatMsgs != nil {
					heatMsgs[lv.id] += int64(len(mirs))
				}
			}
			sent := e.flush(w, out, &msgs, sendBusy)
			if sentPerW != nil {
				sentPerW[w] += sent
			}
		})

		// Round 2 — mirrors compute partial gathers and reply; masters add
		// their own local partials. Draining is a separate barrier so a fast
		// worker's replies cannot race into a slow worker's request drain.
		e.drainAll(inbound, recvPerW, batchPerW, busyPerW, delivs)
		epoch := e.epoch
		e.parallelTimed(k, busyPerW, func(w int) {
			ws := e.ws[w]
			out := resetOut(ws.outB)
			units := int64(0)
			gatherLocal := func(s int32) (G, bool) {
				var sum G
				has := false
				for _, edge := range ws.inEdges.Row(int(s)) {
					src := &ws.verts[edge.srcSlot]
					gv := e.prog.Gather(src.id, src.cache, edge.weight)
					units++
					if !has {
						sum, has = gv, true
					} else {
						sum = e.prog.Sum(sum, gv)
					}
				}
				return sum, has
			}
			for _, batch := range inbound[w] {
				for _, m := range batch {
					if m.Kind != kindGatherReq {
						panic(fmt.Sprintf("gas: unexpected kind %d in gather round", m.Kind))
					}
					lv := &ws.verts[m.Slot]
					sum, has := gatherLocal(m.Slot)
					out[lv.masterWorker] = append(out[lv.masterWorker],
						gasMsg[V, G]{Kind: kindGatherPartial, Slot: lv.masterSlot, Acc: sum, Has: has})
				}
			}
			// Masters gather locally, stamping their accumulator slots live
			// for this epoch (replacing the per-step masterSlot → partial map).
			for s := range ws.verts {
				lv := &ws.verts[s]
				if !lv.master || !lv.active {
					continue
				}
				sum, has := gatherLocal(int32(s))
				ws.accVal[s] = sum
				ws.accHas[s] = has
				ws.accStamp[s] = epoch
			}
			sent := e.flush(w, out, &msgs, sendBusy)
			if sentPerW != nil {
				sentPerW[w] += sent
				unitsPerW[w] += units
			}
			computeUnits.Add(units)
		})

		// Round 3 — masters fold partials, apply, and push new values to
		// mirrors.
		e.drainAll(inbound, recvPerW, batchPerW, busyPerW, delivs)
		e.parallelTimed(k, busyPerW, func(w int) {
			ws := e.ws[w]
			if residPerW != nil {
				residPerW[w] = residPerW[w][:0]
			}
			for _, batch := range inbound[w] {
				for _, m := range batch {
					if m.Kind != kindGatherPartial {
						panic("gas: unexpected kind in apply round")
					}
					if heatMsgs != nil {
						// Partials arrive only at the master's worker, so the
						// attribution stays single-writer.
						heatMsgs[ws.verts[m.Slot].id]++
					}
					if !m.Has {
						continue
					}
					if ws.accStamp[m.Slot] != epoch {
						ws.accStamp[m.Slot] = epoch
						ws.accVal[m.Slot] = m.Acc
						ws.accHas[m.Slot] = true
					} else if !ws.accHas[m.Slot] {
						ws.accVal[m.Slot] = m.Acc
						ws.accHas[m.Slot] = true
					} else {
						ws.accVal[m.Slot] = e.prog.Sum(ws.accVal[m.Slot], m.Acc)
					}
				}
			}
			out := resetOut(ws.outA)
			// Ascending-slot sweep over the stamped accumulators — the same
			// visit order the old sorted-map iteration produced, so the
			// per-step message series stay byte-identical.
			for s := range ws.verts {
				if ws.accStamp[s] != epoch {
					continue
				}
				lv := &ws.verts[s]
				newVal, activate := e.prog.Apply(lv.id, lv.cache, ws.accVal[s], ws.accHas[s], e.step)
				if residPerW != nil {
					residPerW[w] = append(residPerW[w], e.cfg.Residual(lv.cache, newVal))
				}
				lv.cache = newVal
				ws.scat[s] = activate
				ws.scatStamp[s] = epoch
				mirs := ws.mirrors.Row(s)
				for _, m := range mirs {
					out[m.worker] = append(out[m.worker], gasMsg[V, G]{Kind: kindApplyPush, Slot: m.slot, Val: newVal})
				}
				if heatMsgs != nil {
					heatMsgs[lv.id] += int64(len(mirs))
					// The vertex's gather scanned its full in-edge set,
					// wherever those edges live — its global in-degree.
					heatUnits[lv.id] += int64(e.g.InDegree(lv.id))
				}
			}
			sent := e.flush(w, out, &msgs, sendBusy)
			if sentPerW != nil {
				sentPerW[w] += sent
				// Round 3's out queues hold only apply pushes — the mirror
				// value maintenance that is GAS's replica-sync traffic.
				syncPerW[w] += sent
			}
		})

		// Round 4 — mirrors refresh caches; masters send scatter requests.
		e.drainAll(inbound, recvPerW, batchPerW, busyPerW, delivs)
		e.parallelTimed(k, busyPerW, func(w int) {
			ws := e.ws[w]
			for _, batch := range inbound[w] {
				for _, m := range batch {
					if m.Kind != kindApplyPush {
						panic("gas: unexpected kind in push round")
					}
					ws.verts[m.Slot].cache = m.Val
				}
			}
			out := resetOut(ws.outB)
			for s := range ws.verts {
				if ws.scatStamp[s] != epoch || !ws.scat[s] {
					continue
				}
				mirs := ws.mirrors.Row(s)
				for _, m := range mirs {
					out[m.worker] = append(out[m.worker], gasMsg[V, G]{Kind: kindScatterReq, Slot: m.slot})
				}
				if heatMsgs != nil {
					heatMsgs[ws.verts[s].id] += int64(len(mirs))
				}
			}
			sent := e.flush(w, out, &msgs, sendBusy)
			if sentPerW != nil {
				sentPerW[w] += sent
			}
		})

		// Round 5 — scatter: mirrors (and masters locally) activate the
		// local copies' out-neighbors; remote activations return to the
		// masters of the activated vertices.
		//
		// ws.nextActive is only written by worker w's goroutine in each of
		// the two sequential rounds below, so no locking is needed.
		e.drainAll(inbound, recvPerW, batchPerW, busyPerW, delivs)
		e.parallelTimed(k, busyPerW, func(w int) {
			ws := e.ws[w]
			out := resetOut(ws.outA)
			// PowerGraph batches activation returns: at most one activate
			// message per (activated vertex, worker) pair per superstep —
			// the epoch stamp replaces the per-step dedup map.
			activateLocalOuts := func(s int32) {
				for _, dst := range ws.outSlots.Row(int(s)) {
					dlv := &ws.verts[dst]
					if dlv.master {
						ws.nextActive[dst] = true
					} else if ws.queuedStamp[dst] != epoch {
						ws.queuedStamp[dst] = epoch
						out[dlv.masterWorker] = append(out[dlv.masterWorker],
							gasMsg[V, G]{Kind: kindActivate, Slot: dlv.masterSlot})
					}
				}
			}
			for _, batch := range inbound[w] {
				for _, m := range batch {
					if m.Kind != kindScatterReq {
						panic("gas: unexpected kind in scatter round")
					}
					activateLocalOuts(m.Slot)
				}
			}
			for s := range ws.verts {
				if ws.scatStamp[s] == epoch && ws.scat[s] {
					activateLocalOuts(int32(s))
				}
			}
			sent := e.flush(w, out, &msgs, sendBusy)
			if sentPerW != nil {
				sentPerW[w] += sent
			}
		})

		// Final drain: deliver activation returns to masters.
		e.drainAll(inbound, recvPerW, batchPerW, busyPerW, delivs)
		e.parallelTimed(k, busyPerW, func(w int) {
			ws := e.ws[w]
			for _, batch := range inbound[w] {
				for _, m := range batch {
					if m.Kind != kindActivate {
						panic("gas: unexpected kind in activation drain")
					}
					if heatMsgs != nil {
						// Activation returns land at the master's worker.
						heatMsgs[ws.verts[m.Slot].id]++
					}
					ws.nextActive[m.Slot] = true
				}
			}
		})
		stats.Durations[metrics.Compute] = time.Since(cmpStart)
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Compute, stats.Durations[metrics.Compute])
		}

		// Audit: round 4 refreshed every applied master's mirrors, and
		// unapplied masters did not change — so every mirror must now equal
		// its master exactly.
		var violations []obs.Violation
		if e.cfg.Audit {
			violations = e.auditMirrors()
		}

		// Barrier bookkeeping: set next activation and clear the flags for
		// the next superstep.
		synStart := time.Now()
		for w := 0; w < k; w++ {
			ws := e.ws[w]
			for s := range ws.verts {
				if ws.verts[s].master {
					ws.verts[s].active = ws.nextActive[s]
				}
				ws.nextActive[s] = false
			}
		}
		stats.Durations[metrics.Sync] = time.Since(synStart)

		stats.Messages = msgs.Load()
		if residPerW != nil {
			resAll = resAll[:0]
			for _, rs := range residPerW {
				resAll = append(resAll, rs...)
			}
			stats.SetResiduals(resAll)
		}
		stats.ComputeUnitsMax = computeUnits.Load() / int64(k)
		stats.SendMax = msgs.Load() / int64(k)
		stats.RecvMax = msgs.Load() / int64(k)
		stats.ModelNanos = e.model.StepCost(
			stats.ComputeUnitsMax, stats.SendMax, stats.RecvMax,
			e.cfg.Cluster.Threads, 1, k, true, e.model.FlatBarrier(k))
		e.trace.Append(stats)
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Sync, stats.Durations[metrics.Sync])
			for w := 0; w < k; w++ {
				hooks.OnWorkerStats(obs.WorkerStats{
					Step:         e.step,
					Worker:       w,
					ComputeUnits: unitsPerW[w],
					Sent:         sentPerW[w],
					Received:     recvPerW[w],
					Active:       activePerW[w],
					QueueDepth:   batchPerW[w],
				})
			}
			cur := e.tr.Stats().Matrix().Snapshot()
			commDelta := cur.Sub(prevComm)
			hooks.OnCommMatrix(e.step, commDelta)
			prevComm = cur
			for _, v := range violations {
				hooks.OnViolation(v)
			}
			hooks.OnHeat(obs.HeatStepData{
				Step:       e.step,
				Partitions: obs.BuildHeatPartitions(e.step, commDelta, activePerW, unitsPerW, syncPerW),
				Hot: obs.TopHotVertices(heatMsgs, heatUnits,
					func(v int) int { return int(masterOf[v]) }, obs.DefaultHotK),
			})
			hooks.OnSuperstepEnd(e.step, stats)
			// Wall is the sum of the phase durations — exactly what
			// timings.csv records for the step — so critpath.csv columns
			// reconcile with it by construction. Compute is the per-worker
			// busy time across all five rounds minus its send share.
			sd.Wall = stats.Durations[metrics.Parse] + stats.Durations[metrics.Compute] +
				stats.Durations[metrics.Send] + stats.Durations[metrics.Sync]
			runWall += sd.Wall
			for w := 0; w < k; w++ {
				computeDur[w] = busyPerW[w] - sendBusy[w]
				if computeDur[w] < 0 {
					computeDur[w] = 0
				}
				serNs[w] = e.tr.SerializeNanos(w) - serNs0[w]
			}
			sd.Compute = computeDur
			sd.Send = sendBusy
			sd.SerializeNs = serNs
			sd.Units = unitsPerW
			sd.Sent = sentPerW
			sd.Recv = recvPerW
			sd.Deliveries = delivs
			obs.EmitStepSpans(hooks, sd)
		}
		// Fault check at the barrier, before anything from this superstep is
		// persisted: a transient transport fault rolls the run back to the
		// latest checkpoint and replays (mirrors rebuilt from masters, the
		// vertex-cut analogue of §3.6); anything else fails the run.
		if err := e.tr.Err(); err != nil {
			if transport.IsTransient(err) && e.cfg.Recover != nil && recoveries < maxRecoveries {
				st, lerr := e.cfg.Recover()
				if lerr != nil {
					if hooks != nil {
						hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
						hooks.OnConverged(e.step, obs.ReasonFault)
					}
					return e.trace, fmt.Errorf("gas: recovery: load checkpoint: %w", lerr)
				}
				faultStep := e.step
				if e.inj != nil {
					e.inj.Heal()
				}
				if rerr := e.Restore(st); rerr != nil {
					if hooks != nil {
						hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
						hooks.OnConverged(e.step, obs.ReasonFault)
					}
					return e.trace, fmt.Errorf("gas: recovery: %w", rerr)
				}
				recoveries++
				if hooks != nil {
					hooks.OnRecovery(obs.RecoveryEvent{
						Engine:    e.trace.Engine,
						Step:      faultStep,
						ResumedAt: e.step,
						Attempt:   recoveries,
						Cause:     err.Error(),
					})
				}
				continue
			}
			if hooks != nil {
				hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
				hooks.OnConverged(e.step, obs.ReasonFault)
			}
			return e.trace, fmt.Errorf("gas: transport: %w", err)
		}
		if len(violations) > 0 {
			if hooks != nil {
				hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
				hooks.OnConverged(e.step, obs.ReasonAuditFailed)
			}
			return e.trace, fmt.Errorf("gas: %w", &obs.AuditError{Violations: violations})
		}
		if e.cfg.CheckpointEvery > 0 && e.cfg.Checkpoints != nil &&
			(e.step+1)%e.cfg.CheckpointEvery == 0 {
			if err := e.cfg.Checkpoints(e.snapshot()); err != nil {
				if hooks != nil {
					hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
					hooks.OnConverged(e.step, obs.ReasonFault)
				}
				return e.trace, fmt.Errorf("gas: checkpoint at step %d: %w", e.step, err)
			}
		}
		if e.cfg.OnStep != nil {
			e.cfg.OnStep(e.step, e)
		}
		e.step++
	}
	if hooks != nil {
		hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
		hooks.OnConverged(e.step, stopReason)
	}
	if err := e.tr.Err(); err != nil {
		return e.trace, fmt.Errorf("gas: transport: %w", err)
	}
	return e.trace, nil
}

// drainAll drains every worker's queue behind a barrier, so messages of the
// next round can never race into the current round's processing, filling the
// caller's reusable inbound buffer. recvPerW and batchPerW, when non-nil,
// accumulate per-worker receive counts for the observation hooks (each slot
// is written only by its own worker).
func (e *Engine[V, G]) drainAll(dst [][][]gasMsg[V, G], recvPerW, batchPerW []int64,
	busy []time.Duration, delivs [][]span.Delivery) {
	e.parallelTimed(len(dst), busy, func(w int) {
		dst[w] = e.tr.Drain(w) //lint:allow bufretain dst is the caller's round-scoped inbound buffer, overwritten by the next drainAll before the batches are reused
		if delivs != nil {
			// Merge this round's batch provenance; five rounds drain per
			// superstep and LastDeliveries only covers the latest.
			delivs[w] = span.MergeDeliveries(delivs[w], e.tr.LastDeliveries(w))
		}
		if recvPerW != nil {
			for _, b := range dst[w] {
				recvPerW[w] += int64(len(b))
			}
			batchPerW[w] += int64(len(dst[w]))
		}
	})
}

// parallel runs fn for every worker concurrently and waits.
func (e *Engine[V, G]) parallel(k int, fn func(w int)) {
	e.parallelTimed(k, nil, fn)
}

// parallelTimed is parallel with per-worker busy-time accounting for the
// span stream; busy may be nil (hooks off).
func (e *Engine[V, G]) parallelTimed(k int, busy []time.Duration, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			fn(w)
			if busy != nil {
				busy[w] += time.Since(t0)
			}
		}(w)
	}
	wg.Wait()
}

// flush sends per-destination batches, counts messages, and closes the
// worker's communication round so the next drain can proceed. It returns
// the number of messages sent.
func (e *Engine[V, G]) flush(from int, out [][]gasMsg[V, G], msgs *atomic.Int64,
	sendBusy []time.Duration) int64 {
	t0 := time.Now()
	var sent int64
	for to, batch := range out {
		if len(batch) == 0 {
			continue
		}
		sent += int64(len(batch))
		e.tr.Send(from, to, batch)
	}
	msgs.Add(sent)
	e.tr.FinishRound(from)
	if sendBusy != nil {
		sendBusy[from] += time.Since(t0)
	}
	return sent
}

// resetOut truncates every per-destination batch to zero length, keeping the
// backing arrays for reuse. Reuse is safe because the batches a round sends
// are drained behind a barrier and read in the next round, and each buffer
// set is refilled two rounds later at the earliest (the outA/outB parity).
func resetOut[V, G any](out [][]gasMsg[V, G]) [][]gasMsg[V, G] {
	for to := range out {
		out[to] = out[to][:0]
	}
	return out
}

// Close releases transport resources (sockets in TCPLoopback mode).
func (e *Engine[V, G]) Close() error { return e.tr.Close() }
