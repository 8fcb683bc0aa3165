// Package cyclops implements the paper's core contribution: a synchronous
// vertex-oriented graph engine computing over a distributed immutable view
// (§3). Each worker owns a partition of master vertices and holds read-only
// replicas of every remote vertex that has an out-edge into the partition.
// Only masters compute; they read their in-neighbors' last published values
// through shared memory (the immutable view), and when a master's published
// value changes it sends exactly one unidirectional sync message to each of
// its replicas. Replicas double as distributed activators: a sync message
// tagged with an activation request wakes the replica's local out-neighbors,
// so no replica→master traffic ever exists and message receipt is
// contention-free (§3.4).
//
// The same engine runs both flat Cyclops (M×W workers, one thread each) and
// hierarchical CyclopsMT (§5): configuring T compute threads and R receiver
// threads per worker stripes the compute phase and parallelises replica
// updates inside a worker, and the barrier cost model switches to the
// hierarchical (machine-level) barrier.
package cyclops

import (
	"errors"
	"fmt"
	"time"

	"cyclops/internal/aggregate"
	"cyclops/internal/cluster"
	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// Program is a Cyclops vertex program with local semantics: Compute reads
// neighboring vertices' published values directly from the immutable view
// instead of receiving messages (compare Figure 5 with Figure 2).
//
// V is the master-side vertex state (e.g. a PageRank rank); M is the
// published value neighbors read (e.g. rank/outDegree — the paper's
// "message" stored at replicas). For many algorithms V == M.
type Program[V, M any] interface {
	// Init returns vertex id's initial state, its initially published value
	// (what neighbors see before the vertex first publishes), and whether
	// the vertex starts active. Init must be deterministic: it is evaluated
	// both at masters and to seed replica views.
	Init(id graph.ID, g *graph.Graph) (V, M, bool)
	// Compute runs on an active master vertex.
	Compute(ctx *Context[V, M])
}

// Config tunes an engine run.
type Config[V, M any] struct {
	// Cluster is the simulated topology. Workers() = graph partitions;
	// Threads and Receivers enable the hierarchical CyclopsMT mode.
	Cluster cluster.Config
	// Partitioner assigns masters to workers (default hash, as in Hama).
	Partitioner partition.Partitioner
	// MaxSupersteps bounds the run (default 100).
	MaxSupersteps int
	// Halt adds a termination test at each barrier besides the natural
	// "no vertex active" stop.
	Halt aggregate.HaltFunc
	// Equal detects republished-but-unchanged values for redundant-message
	// accounting. Optional. When set, publishing an unchanged value skips
	// the sync message entirely (replicas already hold it).
	Equal func(a, b M) bool
	// Residual maps a master's previous and newly published values to a
	// scalar distance (|Δ| for scalar algorithms). When set, each superstep's
	// StepStats carries the quantiles of this distribution over all
	// publishing masters — the convergence telemetry behind Figure 3.
	// Optional; nil skips the accounting entirely.
	Residual func(old, new M) float64
	// SizeOfMsg estimates a published value's wire size (nil = 16 bytes).
	SizeOfMsg func(M) int64
	// MsgCodec encodes sync messages in the binary frame format as 4B slot
	// + 1B activation + codec-encoded value, and wire accounting charges the
	// exact frame bytes on every network. Required by TCPLoopback (New fails
	// with transport.ErrNoCodec); in-process, nil keeps wire == payload.
	MsgCodec graph.Codec[M]
	// Network selects in-process queues (default) or real loopback TCP
	// sockets carrying binary frames. Checkpointing requires InProcess.
	Network transport.Network
	// CostModel overrides the default model constants.
	CostModel *metrics.CostModel
	// OnStep runs after each barrier (values consistent).
	OnStep func(step int, e *Engine[V, M])
	// Hooks receives live instrumentation events (run/superstep/phase spans
	// and per-worker stats). nil disables observation; the hot path then
	// pays only a nil-check per phase.
	Hooks obs.Hooks
	// Audit enables the replica-invariant auditor: after each SYN phase the
	// engine verifies that every replica equals its master's published value,
	// that each replica received at most one sync message, and that no
	// message targeted a master slot (§3.4's unidirectional-communication
	// invariants). Violations are reported through Hooks.OnViolation and
	// fail the run with an *obs.AuditError. Off by default: auditing scans
	// every replica each superstep.
	Audit bool
	// CheckpointEvery saves state every k supersteps to Checkpoints (k>0).
	// Per §3.6, checkpoints exclude replicas and messages.
	CheckpointEvery int
	// Checkpoints receives snapshots.
	Checkpoints func(State[V, M]) error
	// Recover loads the state to roll back to after a transient transport
	// fault at a barrier (typically checkpoint.LoadLatest over the same
	// directory Checkpoints writes into). When set, the engine restores the
	// state, rebuilds every replica from its master (§3.6), and replays;
	// when nil, any transport fault fails the run. Requires InProcess.
	Recover func() (State[V, M], error)
	// MaxRecoveries bounds recovery attempts per run (default 3); a fault
	// beyond the budget fails the run with the underlying transport error.
	MaxRecoveries int
	// FaultPlan injects a deterministic fault schedule at the transport
	// boundary (testing/chaos only). Same plan ⇒ same faults.
	FaultPlan *fault.Plan
}

// replicaRef locates one replica of a master.
type replicaRef struct {
	worker int32
	slot   int32
}

// syncMsg refreshes one replica and optionally activates its local
// out-neighbors. Each replica receives at most one syncMsg per superstep.
type syncMsg[M any] struct {
	Slot     int32
	Val      M
	Activate bool
}

// workerState is one worker's share of the graph: master vertices in slots
// [0, numMasters) and replicas in slots [numMasters, numSlots).
//
// The adjacency structures are immutable CSR rows built once at ingress:
// flat offset-indexed arrays replace the per-slot Go slices, so the compute
// inner loop walks contiguous memory with no pointer chasing and the whole
// layout costs two allocations per relation instead of one per vertex.
type workerState[V, M any] struct {
	masters    []graph.ID            // slot → global id
	values     []V                   // master state, len = numMasters
	view       []M                   // the immutable view, len = numSlots
	in         graph.CSR[int32]      // per master: local slots of in-neighbors
	inWeights  graph.CSR[float64]    // parallel to in
	localOut   graph.CSR[int32]      // per slot: local master slots to activate
	replicas   graph.CSR[replicaRef] // per master: replica locations
	outDeg     []int32               // per master: global out-degree
	inUnits    []int32               // per master: in-degree (compute units)
	replicaIDs []graph.ID            // per replica slot (offset by numMasters): global id

	active []uint32 // per master: computes this superstep (0/1)
	next   []uint32 // per master: activated for next superstep (atomic sets)

	// out holds the SND phase's per-destination batches. The backing arrays
	// are reused across supersteps ([:0] reset): the transport hands every
	// batch to this worker's own RECV drain within the same superstep, so by
	// the time SND runs again the previous batches are dead.
	out [][]syncMsg[M]
}

func (ws *workerState[V, M]) numMasters() int { return len(ws.masters) }

// IngressStats reports the Figure 13(1) breakdown of graph ingress.
type IngressStats struct {
	// Replication is the time spent creating replicas and wiring the view.
	Replication time.Duration
	// Init is the time spent evaluating Program.Init for masters and
	// replica seeds.
	Init time.Duration
	// Replicas is the total replica count; Replicas/|V| is the replication
	// factor of Figure 11.
	Replicas int64
}

// Engine executes a Program over the distributed immutable view.
type Engine[V, M any] struct {
	g       *graph.Graph
	prog    Program[V, M]
	cfg     Config[V, M]
	assign  *partition.Assignment
	ws      []*workerState[V, M]
	tr      transport.Interface[syncMsg[M]]
	inj     *fault.Injector[syncMsg[M]]
	agg     *aggregate.Registry
	trace   *metrics.Trace
	model   metrics.CostModel
	ingress IngressStats
	step    int

	// runSeq numbers Run calls on this engine (1-based); it becomes the
	// span stream's Run id, so restored engines keep distinct run spans.
	runSeq int64
}

// New partitions the graph, creates the replicas that form the distributed
// immutable view (the paper's extra ingress superstep, §4.3), and seeds
// every master and replica with the program's initial published value.
func New[V, M any](g *graph.Graph, prog Program[V, M], cfg Config[V, M]) (*Engine[V, M], error) {
	if g == nil || prog == nil {
		return nil, errors.New("cyclops: graph and program are required")
	}
	cfg.Cluster = cfg.Cluster.Normalize()
	if cfg.Partitioner == nil {
		cfg.Partitioner = partition.Hash{}
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 100
	}
	workers := cfg.Cluster.Workers()
	if cfg.Network != transport.InProcess && cfg.CheckpointEvery > 0 {
		return nil, errors.New("cyclops: checkpointing requires the in-process network")
	}
	if cfg.Network != transport.InProcess && cfg.Recover != nil {
		return nil, errors.New("cyclops: recovery requires the in-process network")
	}
	assign, err := cfg.Partitioner.Partition(g, workers)
	if err != nil {
		return nil, fmt.Errorf("cyclops: partition: %w", err)
	}
	tr, err := transport.New[syncMsg[M]](cfg.Network, workers,
		transport.PerSenderQueue, wrapSize[M](cfg.SizeOfMsg), wrapCodec[M](cfg.MsgCodec))
	if err != nil {
		return nil, fmt.Errorf("cyclops: transport: %w", err)
	}
	var inj *fault.Injector[syncMsg[M]]
	if cfg.FaultPlan != nil {
		inj = fault.Wrap(tr, *cfg.FaultPlan)
		tr = inj
	}

	name := "cyclops"
	if cfg.Cluster.Threads > 1 || cfg.Cluster.Receivers > 1 {
		name = "cyclopsmt"
	}
	e := &Engine[V, M]{
		g:      g,
		prog:   prog,
		cfg:    cfg,
		assign: assign,
		ws:     make([]*workerState[V, M], workers),
		tr:     tr,
		inj:    inj,
		agg:    aggregate.NewRegistry(),
		trace:  &metrics.Trace{Engine: name, Workers: workers},
		model:  metrics.DefaultCostModel(),
	}
	if cfg.CostModel != nil {
		e.model = *cfg.CostModel
	}
	if err := e.buildView(); err != nil {
		return nil, fmt.Errorf("cyclops: %w", err)
	}
	return e, nil
}

func wrapSize[M any](sizeOf func(M) int64) func(syncMsg[M]) int64 {
	if sizeOf == nil {
		return nil
	}
	return func(m syncMsg[M]) int64 { return 5 + sizeOf(m.Val) }
}

// syncCodec frames a syncMsg as 4B slot + 1B activation flag + value — the
// same 5-byte envelope wrapSize charges, so payload and wire accounting
// describe the same bytes.
type syncCodec[M any] struct{ inner graph.Codec[M] }

//lint:hotpath
func (c syncCodec[M]) EncodedSize(m syncMsg[M]) int {
	return 5 + c.inner.EncodedSize(m.Val)
}

//lint:hotpath
func (c syncCodec[M]) Append(dst []byte, m syncMsg[M]) []byte {
	dst = graph.AppendUint32(dst, uint32(m.Slot))
	var act byte
	if m.Activate {
		act = 1
	}
	dst = append(dst, act)
	return c.inner.Append(dst, m.Val)
}

//lint:hotpath
func (c syncCodec[M]) Decode(src []byte) (syncMsg[M], int, error) {
	var m syncMsg[M]
	if len(src) < 5 {
		return m, 0, graph.ErrShortBuffer
	}
	slot, err := graph.Uint32At(src)
	if err != nil {
		return m, 0, err
	}
	m.Slot = int32(slot)
	m.Activate = src[4] != 0
	val, n, err := c.inner.Decode(src[5:])
	if err != nil {
		return m, 0, err
	}
	m.Val = val
	return m, 5 + n, nil
}

func wrapCodec[M any](inner graph.Codec[M]) graph.Codec[syncMsg[M]] {
	if inner == nil {
		return nil
	}
	return syncCodec[M]{inner: inner}
}

// buildView performs the replica-creation ingress phase (§4.3): every vertex
// "sends a message" along its out-edges; the receiving worker creates a
// replica for each remote source, wires an in-edge from it, and records a
// local out-edge so the replica can activate the target later.
//
// Adjacency is assembled in per-slot rows first (insertion order) and then
// flattened into immutable CSR arrays, preserving the exact neighbor order
// of the old slice-of-slices layout — the flight recorder's byte-identical
// series depend on that order.
func (e *Engine[V, M]) buildView() error {
	workers := e.cfg.Cluster.Workers()
	n := e.g.NumVertices()

	repStart := time.Now()
	layout, err := partition.NewLayout(e.assign, n)
	if err != nil {
		return err
	}
	masterSlot := layout.Slot // global id → master slot on its owner
	inRows := make([][][]int32, workers)
	inWRows := make([][][]float64, workers)
	outRows := make([][][]int32, workers) // grows past masters as replicas appear
	repRows := make([][][]replicaRef, workers)
	for w := 0; w < workers; w++ {
		ws := &workerState[V, M]{masters: layout.Masters(w)}
		e.ws[w] = ws
		m := ws.numMasters()
		ws.values = make([]V, m)
		ws.outDeg = make([]int32, m)
		ws.inUnits = make([]int32, m)
		ws.active = make([]uint32, m)
		ws.next = make([]uint32, m) //lint:allow atomicmix construction happens before any worker goroutine starts
		ws.out = make([][]syncMsg[M], workers)
		for i, id := range ws.masters {
			ws.outDeg[i] = int32(e.g.OutDegree(id))
			ws.inUnits[i] = int32(e.g.InDegree(id))
		}
		inRows[w] = make([][]int32, m)
		inWRows[w] = make([][]float64, m)
		outRows[w] = make([][]int32, m)
		repRows[w] = make([][]replicaRef, m)
	}

	// replicaSlot[w][id] is id's replica slot on w, or -1 — a dense array
	// instead of a map: ingress touches it once per spanning edge.
	replicaSlot := make([][]int32, workers)
	for w := range replicaSlot {
		rs := make([]int32, n)
		for i := range rs {
			rs[i] = -1
		}
		replicaSlot[w] = rs
	}
	ensureReplica := func(w int, id graph.ID) int32 {
		if s := replicaSlot[w][id]; s >= 0 {
			return s
		}
		ws := e.ws[w]
		s := int32(ws.numMasters() + len(ws.replicaIDs))
		replicaSlot[w][id] = s
		ws.replicaIDs = append(ws.replicaIDs, id)
		outRows[w] = append(outRows[w], nil)
		owner := e.assign.Of[id]
		repRows[owner][masterSlot[id]] = append(
			repRows[owner][masterSlot[id]],
			replicaRef{worker: int32(w), slot: s})
		e.ingress.Replicas++
		return s
	}

	for u := 0; u < n; u++ {
		wu := e.assign.Of[u]
		su := masterSlot[u]
		ns := e.g.OutNeighbors(graph.ID(u))
		wts := e.g.OutWeights(graph.ID(u))
		for i, v := range ns {
			wv := e.assign.Of[v]
			sv := masterSlot[v]
			if wu == wv {
				// Local edge: direct shared-memory in-edge + local
				// activation edge.
				inRows[wv][sv] = append(inRows[wv][sv], su)
				inWRows[wv][sv] = append(inWRows[wv][sv], wts[i])
				outRows[wu][su] = append(outRows[wu][su], sv)
			} else {
				// Spanning edge: the target worker gets a replica of u,
				// the in-edge points at the replica, and the replica
				// carries the activation edge to v.
				r := ensureReplica(wv, graph.ID(u))
				inRows[wv][sv] = append(inRows[wv][sv], r)
				inWRows[wv][sv] = append(inWRows[wv][sv], wts[i])
				outRows[wv][r] = append(outRows[wv][r], sv)
			}
		}
	}
	for w := 0; w < workers; w++ {
		ws := e.ws[w]
		ws.in = graph.CSRFromRows(inRows[w])
		ws.inWeights = graph.CSRFromRows(inWRows[w])
		ws.localOut = graph.CSRFromRows(outRows[w])
		ws.replicas = graph.CSRFromRows(repRows[w])
	}
	e.ingress.Replication = time.Since(repStart)

	// Seed values and views. Init must be deterministic so replica seeds
	// agree with master seeds.
	initStart := time.Now()
	for w := 0; w < workers; w++ {
		ws := e.ws[w]
		ws.view = make([]M, ws.numMasters()+len(ws.replicaIDs))
		for i, id := range ws.masters {
			v, m, act := e.prog.Init(id, e.g)
			ws.values[i] = v
			ws.view[i] = m
			if act {
				ws.active[i] = 1
			}
		}
		for r, id := range ws.replicaIDs {
			_, m, _ := e.prog.Init(id, e.g)
			ws.view[ws.numMasters()+r] = m
		}
	}
	e.ingress.Init = time.Since(initStart)
	return nil
}

// Graph returns the input graph.
func (e *Engine[V, M]) Graph() *graph.Graph { return e.g }

// Assignment exposes the partition.
func (e *Engine[V, M]) Assignment() *partition.Assignment { return e.assign }

// Aggregates exposes the folded aggregator values of the last barrier.
func (e *Engine[V, M]) Aggregates() *aggregate.Registry { return e.agg }

// Trace returns per-superstep statistics.
func (e *Engine[V, M]) Trace() *metrics.Trace { return e.trace }

// Ingress returns the replica-creation statistics (Figure 13(1), Table 4).
func (e *Engine[V, M]) Ingress() IngressStats { return e.ingress }

// ReplicationFactor returns replicas per vertex (Figure 11).
func (e *Engine[V, M]) ReplicationFactor() float64 {
	if e.g.NumVertices() == 0 {
		return 0
	}
	return float64(e.ingress.Replicas) / float64(e.g.NumVertices())
}

// Superstep reports the current superstep index.
func (e *Engine[V, M]) Superstep() int { return e.step }

// Values assembles the global vertex state indexed by vertex id.
func (e *Engine[V, M]) Values() []V {
	out := make([]V, e.g.NumVertices())
	for _, ws := range e.ws {
		for i, id := range ws.masters {
			out[id] = ws.values[i]
		}
	}
	return out
}

// ViewOf returns the published value of vertex id as stored at its master
// (what neighbors read next superstep). Test/diagnostic helper.
func (e *Engine[V, M]) ViewOf(id graph.ID) M {
	w := e.assign.Of[id]
	ws := e.ws[w]
	for i, m := range ws.masters {
		if m == id {
			return ws.view[i]
		}
	}
	panic("cyclops: vertex not found at its owner")
}

// TransportStats exposes raw traffic counters.
func (e *Engine[V, M]) TransportStats() transport.Snapshot { return e.tr.Stats().Snapshot() }

// workerReplicas reports how many replicas each worker hosts (the skew
// profiler's replica-placement vector).
func (e *Engine[V, M]) workerReplicas() []int64 {
	out := make([]int64, len(e.ws))
	for w, ws := range e.ws {
		out[w] = int64(len(ws.replicaIDs))
	}
	return out
}

// Close releases transport resources (sockets in TCPLoopback mode).
func (e *Engine[V, M]) Close() error { return e.tr.Close() }
