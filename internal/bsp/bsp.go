// Package bsp implements the baseline the paper builds on and compares
// against: a Hama-like Pregel clone. Vertices interact by pure message
// passing; every superstep runs four sequential phases — message parsing
// (PRS), vertex computation (CMP), message sending (SND) and the global
// barrier (SYN) — with messages buffered in a locked global in-queue per
// worker (§2.1, §4.1). The deficiencies §2.2 documents are reproduced
// faithfully: pull-mode programs must keep all vertices alive to resend
// values, converged vertices keep computing and sending redundant messages,
// and termination relies on a coarse global aggregate.
package bsp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cyclops/internal/aggregate"
	"cyclops/internal/cluster"
	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// Program is a Pregel vertex program. Compute is called once per superstep
// for every active vertex with the messages sent to it in the previous
// superstep.
type Program[V, M any] interface {
	// Init returns the initial value of vertex id. All vertices start
	// active, as in Pregel.
	Init(id graph.ID, g *graph.Graph) V
	// Compute inspects and updates the current vertex through ctx.
	Compute(ctx *Context[V, M], msgs []M)
}

// Config tunes an engine run.
type Config[V, M any] struct {
	// Cluster is the simulated topology; the BSP engine uses one thread per
	// worker (Hama predates hierarchical workers).
	Cluster cluster.Config
	// Partitioner assigns vertices to workers (default: hash, as in Hama).
	Partitioner partition.Partitioner
	// MaxSupersteps bounds the run (default 100).
	MaxSupersteps int
	// Halt decides termination at each barrier in addition to the natural
	// "no active vertices and no messages in flight" stop.
	Halt aggregate.HaltFunc
	// Combiner merges two messages bound for the same vertex (must be
	// commutative and associative, §2.2.2). Optional.
	Combiner func(a, b M) M
	// Equal detects unchanged values for redundant-message accounting
	// (Figure 3(2)). Optional; without it every message counts as useful.
	Equal func(a, b V) bool
	// Residual maps a vertex's previous and new values to a scalar distance
	// (|Δ| for scalar algorithms). When set, each superstep's StepStats
	// carries the quantiles of this distribution over all SetValue calls —
	// the convergence telemetry behind Figure 3. Optional.
	Residual func(old, new V) float64
	// SizeOfMsg estimates a message's wire size; nil means 16 bytes.
	SizeOfMsg func(M) int64
	// MsgCodec encodes message envelopes in the binary wire format: the TCP
	// transport frames batches with it (arena-encoded, zero allocations per
	// message) and requires it (New fails with transport.ErrNoCodec), and
	// the in-process transport charges its exact encoded sizes to the wire
	// books (nil keeps wire == payload). Payload accounting (SizeOfMsg) is
	// unaffected.
	MsgCodec graph.Codec[M]
	// CostModel overrides the default model constants.
	CostModel *metrics.CostModel
	// PerSenderQueues replaces Hama's locked global in-queue with Cyclops'
	// contention-free per-sender slots. It is an ablation knob (experiment
	// "ablation.queue"), not something Hama offers.
	PerSenderQueues bool
	// Network selects in-process queues (default) or real loopback TCP
	// sockets carrying binary frames. Checkpointing requires InProcess
	// (sockets hold in-flight state a snapshot cannot capture).
	Network transport.Network
	// OnStep is called after each barrier with the engine (values are
	// consistent then); used by the harness for L1-norm tracking.
	OnStep func(step int, e *Engine[V, M])
	// CheckpointEvery saves engine state every k supersteps into Checkpoints
	// when k > 0 (§3.6 fault tolerance: Hama persists values and messages).
	CheckpointEvery int
	// Checkpoints receives the snapshots (in-memory sink; cmd tools wrap it
	// with file persistence).
	Checkpoints func(State[V, M]) error
	// Hooks receives live instrumentation events (run/superstep/phase spans
	// and per-worker stats). nil disables observation; the hot path then
	// pays only a nil-check per phase.
	Hooks obs.Hooks
	// Audit verifies message conservation each superstep: every envelope put
	// on the wire at SND must be delivered by the next PRS — BSP's analogue
	// of Cyclops' replica invariants (there are no replicas to check here).
	// A violation fails the run with *obs.AuditError. Off by default; when
	// off the loop pays one branch per phase.
	Audit bool
	// Recover loads the state to roll back to after a transient transport
	// fault at a barrier (typically checkpoint.LoadLatest over the same
	// directory Checkpoints writes into). When set, the engine restores
	// values, halted flags and pending messages and replays; when nil, any
	// transport fault fails the run. Requires InProcess.
	Recover func() (State[V, M], error)
	// MaxRecoveries bounds recovery attempts per run (default 3); a fault
	// beyond the budget fails the run with the underlying transport error.
	MaxRecoveries int
	// FaultPlan injects a deterministic fault schedule at the transport
	// boundary (testing/chaos only). Same plan ⇒ same faults.
	FaultPlan *fault.Plan
}

// envelope routes one message to a destination vertex.
type envelope[M any] struct {
	Dst graph.ID
	Msg M
}

// State is the checkpointable engine state (§3.6: superstep count, vertex
// values and in-flight messages; Hama must persist messages because they
// carry data).
type State[V, M any] struct {
	Step    int
	Values  []V
	Halted  []bool
	Pending []PendingBatch[M]
}

// PendingBatch is an undelivered message batch addressed to a worker.
type PendingBatch[M any] struct {
	To    int
	Batch []envelope[M]
}

// Engine executes a Program over a partitioned graph.
type Engine[V, M any] struct {
	g      *graph.Graph
	prog   Program[V, M]
	cfg    Config[V, M]
	assign *partition.Assignment
	owned  [][]graph.ID // worker → owned vertex ids

	values []V
	halted []bool
	inbox  [][]M

	// ctxs are the persistent per-worker compute contexts. Their out
	// buffers are arena-style: truncated to length zero at the top of each
	// CMP phase and refilled, so steady-state supersteps append into
	// already-grown backing arrays instead of re-allocating them. Reuse is
	// safe because the batches sent at SND of step N are fully consumed by
	// PRS of step N+1, which completes (barrier) before CMP of step N+1
	// touches the buffers again.
	ctxs []*Context[V, M]

	tr    transport.Interface[envelope[M]]
	inj   *fault.Injector[envelope[M]]
	agg   *aggregate.Registry
	trace *metrics.Trace
	model metrics.CostModel

	step   int
	primed bool

	// runSeq numbers Run calls on this engine (1-based); it becomes the
	// span stream's Run id, so restored engines keep distinct run spans.
	runSeq int64

	// auditPrevSent is the wire-level envelope count of the previous SND
	// phase, compared against the next PRS delivery count when Audit is on.
	// -1 means "no previous superstep to check against" (fresh or restored
	// engine): the Combiner makes logical sent ≠ wire envelopes, so the count
	// must be taken at flush time, and a restore replaces in-flight state.
	auditPrevSent int64
}

// Close releases transport resources (sockets in TCPLoopback mode).
func (e *Engine[V, M]) Close() error { return e.tr.Close() }

// New builds an engine: partitions the graph, initialises vertex values and
// wires the transport with Hama's locked global in-queues.
func New[V, M any](g *graph.Graph, prog Program[V, M], cfg Config[V, M]) (*Engine[V, M], error) {
	if g == nil || prog == nil {
		return nil, errors.New("bsp: graph and program are required")
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
		return nil, errors.New("bsp: checkpointing requires the in-process network")
	}
	if cfg.Network != transport.InProcess && cfg.Recover != nil {
		return nil, errors.New("bsp: recovery requires the in-process network")
	}
	assign, err := cfg.Partitioner.Partition(g, workers)
	if err != nil {
		return nil, fmt.Errorf("bsp: partition: %w", err)
	}
	tr, err := transport.New[envelope[M]](cfg.Network, workers,
		queueMode(cfg.PerSenderQueues), wrapSize[M](cfg.SizeOfMsg), wrapCodec[M](cfg.MsgCodec))
	if err != nil {
		return nil, fmt.Errorf("bsp: transport: %w", err)
	}
	var inj *fault.Injector[envelope[M]]
	if cfg.FaultPlan != nil {
		inj = fault.Wrap(tr, *cfg.FaultPlan)
		tr = inj
	}
	e := &Engine[V, M]{
		g:      g,
		prog:   prog,
		cfg:    cfg,
		assign: assign,
		owned:  make([][]graph.ID, workers),
		values: make([]V, g.NumVertices()),
		halted: make([]bool, g.NumVertices()),
		inbox:  make([][]M, g.NumVertices()),
		tr:     tr,
		inj:    inj,
		agg:    aggregate.NewRegistry(),
		trace:  &metrics.Trace{Engine: "hama", Workers: workers},
		model:  metrics.DefaultCostModel(),

		auditPrevSent: -1,
	}
	if cfg.CostModel != nil {
		e.model = *cfg.CostModel
	}
	// The slot layout is built once at partition time: owned[w] aliases the
	// layout's flat CSR of master ids (ascending within each worker, same
	// order the append loop used to produce).
	layout, err := partition.NewLayout(assign, g.NumVertices())
	if err != nil {
		return nil, fmt.Errorf("bsp: layout: %w", err)
	}
	for w := 0; w < workers; w++ {
		e.owned[w] = layout.Masters(w)
	}
	for v := 0; v < g.NumVertices(); v++ {
		e.values[v] = prog.Init(graph.ID(v), g)
	}
	e.ctxs = make([]*Context[V, M], workers)
	for w := range e.ctxs {
		ctx := &Context[V, M]{e: e, worker: w, out: make([][]envelope[M], workers)}
		if cfg.Combiner != nil {
			// Dense slot-addressed combiner state: per destination vertex,
			// the index of its coalesced envelope in out[owner], valid when
			// the stamp matches the current superstep's. Replaces a
			// map[graph.ID]int probe per message with two array reads.
			ctx.combineIdx = make([]int32, g.NumVertices())
			ctx.combineStamp = make([]uint32, g.NumVertices())
		}
		e.ctxs[w] = ctx
	}
	return e, nil
}

func queueMode(perSender bool) transport.QueueMode {
	if perSender {
		return transport.PerSenderQueue
	}
	return transport.GlobalQueue
}

func wrapSize[M any](sizeOf func(M) int64) func(envelope[M]) int64 {
	if sizeOf == nil {
		return nil
	}
	return func(env envelope[M]) int64 { return 4 + sizeOf(env.Msg) }
}

// envelopeCodec frames an envelope as a 4-byte destination id followed by
// the message's own encoding.
type envelopeCodec[M any] struct{ inner graph.Codec[M] }

//lint:hotpath
func (c envelopeCodec[M]) EncodedSize(env envelope[M]) int {
	return 4 + c.inner.EncodedSize(env.Msg)
}

//lint:hotpath
func (c envelopeCodec[M]) Append(dst []byte, env envelope[M]) []byte {
	dst = graph.AppendUint32(dst, uint32(env.Dst))
	return c.inner.Append(dst, env.Msg)
}

//lint:hotpath
func (c envelopeCodec[M]) Decode(src []byte) (envelope[M], int, error) {
	var env envelope[M]
	d, err := graph.Uint32At(src)
	if err != nil {
		return env, 0, err
	}
	env.Dst = graph.ID(d)
	msg, n, err := c.inner.Decode(src[4:])
	if err != nil {
		return env, 0, err
	}
	env.Msg = msg
	return env, 4 + n, nil
}

func wrapCodec[M any](inner graph.Codec[M]) graph.Codec[envelope[M]] {
	if inner == nil {
		return nil
	}
	return envelopeCodec[M]{inner: inner}
}

// Graph returns the input graph.
func (e *Engine[V, M]) Graph() *graph.Graph { return e.g }

// Values returns the vertex values indexed by vertex id. Only consistent
// between supersteps (i.e. inside OnStep or after Run).
func (e *Engine[V, M]) Values() []V { return e.values }

// Assignment exposes the partition for inspection.
func (e *Engine[V, M]) Assignment() *partition.Assignment { return e.assign }

// Aggregates exposes the previous superstep's folded aggregator values.
func (e *Engine[V, M]) Aggregates() *aggregate.Registry { return e.agg }

// Trace returns the per-superstep statistics collected so far.
func (e *Engine[V, M]) Trace() *metrics.Trace { return e.trace }

// Superstep reports the current superstep index.
func (e *Engine[V, M]) Superstep() int { return e.step }

// Context is the per-vertex view handed to Compute. A Context is only valid
// during the Compute call it is passed to.
type Context[V, M any] struct {
	e       *Engine[V, M]
	worker  int
	vid     graph.ID
	changed bool
	sent    int64
	local   aggregate.Values
	resid   []float64       // residual samples, when cfg.Residual is set
	out     [][]envelope[M] // per destination worker, reused across supersteps
	// Combiner coalescing state (allocated once when cfg.Combiner is set):
	// combineIdx[dst] is the index of dst's envelope in out[owner(dst)],
	// valid only when combineStamp[dst] == stamp. stamp advances once per
	// superstep, so resetting the table costs nothing.
	combineIdx   []int32
	combineStamp []uint32
	stamp        uint32
}

// Vertex returns the current vertex id.
func (c *Context[V, M]) Vertex() graph.ID { return c.vid }

// Superstep returns the current superstep index.
func (c *Context[V, M]) Superstep() int { return c.e.step }

// NumVertices returns the graph's vertex count.
func (c *Context[V, M]) NumVertices() int { return c.e.g.NumVertices() }

// Value returns the current vertex's value.
func (c *Context[V, M]) Value() V { return c.e.values[c.vid] }

// SetValue updates the current vertex's value.
func (c *Context[V, M]) SetValue(v V) {
	if eq := c.e.cfg.Equal; eq == nil || !eq(c.e.values[c.vid], v) {
		c.changed = true
	}
	if r := c.e.cfg.Residual; r != nil {
		c.resid = append(c.resid, r(c.e.values[c.vid], v))
	}
	c.e.values[c.vid] = v
}

// OutDegree returns the current vertex's out-degree.
func (c *Context[V, M]) OutDegree() int { return c.e.g.OutDegree(c.vid) }

// OutNeighbors returns the current vertex's out-neighbors (read-only).
func (c *Context[V, M]) OutNeighbors() []graph.ID { return c.e.g.OutNeighbors(c.vid) }

// OutWeights returns the current vertex's out-edge weights (read-only).
func (c *Context[V, M]) OutWeights() []float64 { return c.e.g.OutWeights(c.vid) }

// SendTo queues a message for vertex dst, delivered next superstep.
func (c *Context[V, M]) SendTo(dst graph.ID, m M) {
	w := c.e.assign.Of[dst]
	c.sent++
	if c.e.cfg.Combiner != nil {
		if c.combineStamp[dst] == c.stamp {
			i := c.combineIdx[dst]
			c.out[w][i].Msg = c.e.cfg.Combiner(c.out[w][i].Msg, m)
			return
		}
		c.combineStamp[dst] = c.stamp
		c.combineIdx[dst] = int32(len(c.out[w]))
	}
	c.out[w] = append(c.out[w], envelope[M]{Dst: dst, Msg: m})
}

// SendToNeighbors queues m for every out-neighbor.
func (c *Context[V, M]) SendToNeighbors(m M) {
	for _, u := range c.e.g.OutNeighbors(c.vid) {
		c.SendTo(u, m)
	}
}

// VoteToHalt deactivates the vertex until a message re-activates it.
func (c *Context[V, M]) VoteToHalt() { c.e.halted[c.vid] = true }

// Aggregate contributes v to the named aggregator (visible next superstep).
func (c *Context[V, M]) Aggregate(name string, v float64) {
	c.e.agg.Combine(c.local, name, v)
}

// AggregateValue reads the previous superstep's folded aggregate.
func (c *Context[V, M]) AggregateValue(name string) (float64, bool) {
	return c.e.agg.Value(name)
}

// Run executes supersteps until termination and returns the trace. A fresh
// engine starts at superstep 0; a Restored engine continues from its
// checkpointed superstep.
func (e *Engine[V, M]) Run() (*metrics.Trace, error) {
	workers := e.cfg.Cluster.Workers()
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
			Workers:  workers,
			Vertices: e.g.NumVertices(),
			Edges:    e.g.NumEdges(),
			// Replicas and ReplicaValueBytes stay zero: Hama has no
			// replicated view — it pays in message buffers instead, which is
			// exactly the memory trade Table 4/5 compares.
			EdgeCut:          int64(e.assign.EdgeCut(e.g)),
			PartitionBalance: e.assign.Balance(),
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

	// Cumulative per-vertex heat counters (hooks on only): messages sent and
	// compute units, by vertex. Each vertex is computed only by its owner's
	// goroutine, so the worker fan-out below stays race-free.
	var heatMsgs, heatUnits []int64
	if hooks != nil {
		heatMsgs = make([]int64, e.g.NumVertices())
		heatUnits = make([]int64, e.g.NumVertices())
	}

	if !e.primed {
		// Establish round 0 so the first superstep's drain has markers to
		// consume on round-based transports.
		for w := 0; w < workers; w++ {
			e.tr.FinishRound(w)
		}
		e.primed = true
	}
	maxRecoveries := e.cfg.MaxRecoveries
	if maxRecoveries <= 0 {
		maxRecoveries = 3
	}
	recoveries := 0

	// Per-superstep bookkeeping, hoisted out of the loop: every slot is
	// overwritten each step, so one allocation serves the whole run.
	recvCounts := make([]int64, workers)
	recvBatches := make([]int64, workers)
	computeUnits := make([]int64, workers)
	activeCounts := make([]int64, workers)
	sendCounts := make([]int64, workers)
	partials := make([]aggregate.Values, workers)
	resids := make([][]float64, workers)
	outs := make([][][]envelope[M], workers)
	wireCounts := make([]int64, workers)
	var parseDur, computeDur, sendDur []time.Duration
	var serNs0, serNs []int64
	var delivs [][]span.Delivery
	if hooks != nil {
		parseDur = make([]time.Duration, workers)
		computeDur = make([]time.Duration, workers)
		sendDur = make([]time.Duration, workers)
		serNs0 = make([]int64, workers)
		serNs = make([]int64, workers)
		delivs = make([][]span.Delivery, workers)
	}

	for e.step < e.cfg.MaxSupersteps {
		if e.inj != nil {
			e.inj.BeginStep(e.step)
		}
		stats := metrics.StepStats{Step: e.step}
		// Span bookkeeping (nil when hooks are off, so the hot path only
		// pays the existing nil checks): per-worker phase durations, the
		// drained batch provenance, and the wire-serialisation deltas.
		sd := obs.StepSpanData{Run: e.runSeq, Step: e.step}
		if hooks != nil {
			hooks.OnSuperstepStart(e.step)
			sd.StepStart = time.Since(runStart)
			hooks.OnSpanStart(obs.StepSpan(e.runSeq, e.step, sd.StepStart))
			// Tag this superstep's sends with its causal context; receivers
			// drain them next superstep and link Deliver spans back to the
			// sender's Send span.
			for w := 0; w < workers; w++ {
				e.tr.Tag(w, span.Context{Run: e.runSeq, Step: int32(e.step), Worker: int32(w)})
			}
		}

		// PRS: drain the locked global in-queue, group messages per vertex,
		// reactivate recipients. One thread per worker, as in Hama.
		if hooks != nil {
			sd.ParseStart = time.Since(runStart)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pt := time.Now()
				batches := e.tr.Drain(w)
				recvBatches[w] = int64(len(batches))
				var recv int64
				for _, batch := range batches {
					recv += int64(len(batch))
					for _, env := range batch {
						e.inbox[env.Dst] = append(e.inbox[env.Dst], env.Msg)
						e.halted[env.Dst] = false
					}
				}
				recvCounts[w] = recv
				if parseDur != nil {
					parseDur[w] = time.Since(pt)
					delivs[w] = e.tr.LastDeliveries(w)
				}
			}(w)
		}
		wg.Wait()
		stats.Durations[metrics.Parse] = time.Since(start)
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Parse, stats.Durations[metrics.Parse])
		}

		// Audit: every envelope the previous SND put on the wire must have
		// arrived. The count is wire-level (post-Combiner), so it is exact.
		var violations []obs.Violation
		if e.cfg.Audit && e.auditPrevSent >= 0 {
			var delivered int64
			for _, r := range recvCounts {
				delivered += r
			}
			if delivered != e.auditPrevSent {
				violations = append(violations, obs.Violation{
					Engine: e.trace.Engine,
					Step:   e.step,
					Worker: -1,
					Vertex: -1,
					Kind:   obs.ViolationMessageConservation,
					Detail: fmt.Sprintf(
						"superstep %d delivered %d envelopes but superstep %d put %d on the wire",
						e.step, delivered, e.step-1, e.auditPrevSent),
				})
			}
		}

		// CMP: run Compute on active vertices, one thread per worker.
		if hooks != nil {
			sd.ComputeStart = time.Since(runStart)
		}
		start = time.Now()
		var active, changed, sentTotal, redundant atomic.Int64
		var computeMax, sendMax int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ct := time.Now()
				// Reuse the persistent context: out buffers keep their
				// capacity (PRS consumed last step's batches before this
				// barrier), the combiner table resets by stamp advance, and
				// the aggregate map is rebuilt because Fold consumed it.
				ctx := e.ctxs[w]
				ctx.local = make(aggregate.Values)
				ctx.resid = ctx.resid[:0]
				ctx.stamp++
				for to := range ctx.out {
					ctx.out[to] = ctx.out[to][:0]
				}
				var units, computed, changedW, sent, redundantW int64
				for _, v := range e.owned[w] {
					msgs := e.inbox[v]
					if e.halted[v] && len(msgs) == 0 {
						continue
					}
					ctx.vid = v
					ctx.changed = false
					before := ctx.sent
					e.prog.Compute(ctx, msgs)
					e.inbox[v] = msgs[:0]
					computed++
					units += int64(len(msgs)) + int64(e.g.OutDegree(v))
					vsent := ctx.sent - before
					sent += vsent
					if heatMsgs != nil {
						heatMsgs[v] += vsent
						heatUnits[v] += int64(len(msgs)) + int64(e.g.OutDegree(v))
					}
					if ctx.changed {
						changedW++
					} else {
						redundantW += vsent
					}
				}
				computeUnits[w] = units
				activeCounts[w] = computed
				sendCounts[w] = sent
				partials[w] = ctx.local
				resids[w] = ctx.resid
				outs[w] = ctx.out
				active.Add(computed)
				changed.Add(changedW)
				sentTotal.Add(sent)
				redundant.Add(redundantW)
				if computeDur != nil {
					computeDur[w] = time.Since(ct)
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if computeUnits[w] > computeMax {
				computeMax = computeUnits[w]
			}
			if sendCounts[w] > sendMax {
				sendMax = sendCounts[w]
			}
		}
		stats.Durations[metrics.Compute] = time.Since(start)
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Compute, stats.Durations[metrics.Compute])
		}

		// SND: flush per-worker bundles through the transport. Senders from
		// all workers contend on each receiver's global queue lock.
		if hooks != nil {
			sd.SendStart = time.Since(runStart)
			for w := 0; w < workers; w++ {
				serNs0[w] = e.tr.SerializeNanos(w)
			}
		}
		start = time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st := time.Now()
				var wire int64
				for to, batch := range outs[w] {
					wire += int64(len(batch))
					e.tr.Send(w, to, batch)
				}
				e.tr.FinishRound(w)
				wireCounts[w] = wire
				if sendDur != nil {
					sendDur[w] = time.Since(st)
				}
			}(w)
		}
		wg.Wait()
		if hooks != nil {
			for w := 0; w < workers; w++ {
				serNs[w] = e.tr.SerializeNanos(w) - serNs0[w]
			}
		}
		if e.cfg.Audit {
			e.auditPrevSent = 0
			for _, n := range wireCounts {
				e.auditPrevSent += n
			}
		}
		stats.Durations[metrics.Send] = time.Since(start)
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Send, stats.Durations[metrics.Send])
		}

		// SYN: barrier — fold aggregates, decide termination, checkpoint.
		start = time.Now()
		e.agg.Fold(partials)
		stats.Active = active.Load()
		stats.Changed = changed.Load()
		stats.Messages = sentTotal.Load()
		stats.RedundantMessages = redundant.Load()
		if e.cfg.Residual != nil {
			var all []float64
			for _, rs := range resids {
				all = append(all, rs...)
			}
			stats.SetResiduals(all)
		}
		stats.ComputeUnitsMax = computeMax
		stats.SendMax = sendMax
		stats.RecvMax = nextRecvMax(outs, workers)
		stats.ModelNanos = e.model.StepCost(
			computeMax, sendMax, stats.RecvMax,
			1, 1, workers, !e.cfg.PerSenderQueues, e.model.FlatBarrier(workers))
		stats.Durations[metrics.Sync] = time.Since(start)
		e.trace.Append(stats)
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Sync, stats.Durations[metrics.Sync])
			for w := 0; w < workers; w++ {
				hooks.OnWorkerStats(obs.WorkerStats{
					Step:         e.step,
					Worker:       w,
					ComputeUnits: computeUnits[w],
					Sent:         sendCounts[w],
					Received:     recvCounts[w],
					Active:       activeCounts[w],
					QueueDepth:   recvBatches[w],
				})
			}
			cur := e.tr.Stats().Matrix().Snapshot()
			commDelta := cur.Sub(prevComm)
			hooks.OnCommMatrix(e.step, commDelta)
			prevComm = cur
			for _, v := range violations {
				hooks.OnViolation(v)
			}
			// Heat: Hama has no replicated view, so the replica-sync column
			// stays nil/zero; its boundary messages are the full §3.4 cost.
			hooks.OnHeat(obs.HeatStepData{
				Step:       e.step,
				Partitions: obs.BuildHeatPartitions(e.step, commDelta, activeCounts, computeUnits, nil),
				Hot: obs.TopHotVertices(heatMsgs, heatUnits,
					func(v int) int { return e.assign.Of[v] }, obs.DefaultHotK),
			})
			hooks.OnSuperstepEnd(e.step, stats)
			// Wall is the sum of the four phase durations — exactly what
			// timings.csv records for the step — so critpath.csv columns
			// reconcile with it by construction.
			sd.Wall = stats.Durations[metrics.Parse] + stats.Durations[metrics.Compute] +
				stats.Durations[metrics.Send] + stats.Durations[metrics.Sync]
			runWall += sd.Wall
			sd.Parse = parseDur
			sd.Compute = computeDur
			sd.Send = sendDur
			sd.SerializeNs = serNs
			sd.Units = computeUnits
			sd.Sent = wireCounts
			sd.Recv = recvCounts
			sd.Deliveries = delivs
			obs.EmitStepSpans(hooks, sd)
		}
		// Fault check at the barrier, before anything from this superstep is
		// persisted: a transient transport fault rolls the run back to the
		// latest checkpoint (§3.6) and replays; anything else fails the run.
		if err := e.tr.Err(); err != nil {
			if transport.IsTransient(err) && e.cfg.Recover != nil && recoveries < maxRecoveries {
				st, lerr := e.cfg.Recover()
				if lerr != nil {
					if hooks != nil {
						hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
						hooks.OnConverged(e.step, obs.ReasonFault)
					}
					return e.trace, fmt.Errorf("bsp: recovery: load checkpoint: %w", lerr)
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
					return e.trace, fmt.Errorf("bsp: recovery: %w", rerr)
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
			return e.trace, fmt.Errorf("bsp: transport: %w", err)
		}

		if len(violations) > 0 {
			if hooks != nil {
				hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
				hooks.OnConverged(e.step, obs.ReasonAuditFailed)
			}
			return e.trace, fmt.Errorf("bsp: %w", &obs.AuditError{Violations: violations})
		}

		if e.cfg.CheckpointEvery > 0 && e.cfg.Checkpoints != nil &&
			(e.step+1)%e.cfg.CheckpointEvery == 0 {
			if err := e.cfg.Checkpoints(e.snapshot()); err != nil {
				if hooks != nil {
					hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
					hooks.OnConverged(e.step, obs.ReasonFault)
				}
				return e.trace, fmt.Errorf("bsp: checkpoint at step %d: %w", e.step, err)
			}
		}
		if e.cfg.OnStep != nil {
			e.cfg.OnStep(e.step, e)
		}

		nextActive := e.countActive() + pendingEstimate(sentTotal.Load())
		if sentTotal.Load() == 0 && e.countActive() == 0 {
			e.step++
			stopReason = obs.ReasonNoActive
			break
		}
		if e.cfg.Halt != nil && e.cfg.Halt(e.step, e.agg.Value, nextActive) {
			e.step++
			stopReason = obs.ReasonHalt
			break
		}
		e.step++
	}
	if hooks != nil {
		hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
		hooks.OnConverged(e.step, stopReason)
	}
	if err := e.tr.Err(); err != nil {
		return e.trace, fmt.Errorf("bsp: transport: %w", err)
	}
	return e.trace, nil
}

// nextRecvMax estimates the max messages any worker will receive next
// superstep from this superstep's outgoing bundles.
func nextRecvMax[M any](outs [][][]envelope[M], workers int) int64 {
	var recvMax int64
	for to := 0; to < workers; to++ {
		var recv int64
		for from := 0; from < workers; from++ {
			if outs[from] != nil {
				recv += int64(len(outs[from][to]))
			}
		}
		if recv > recvMax {
			recvMax = recv
		}
	}
	return recvMax
}

func pendingEstimate(sent int64) int64 {
	if sent > 0 {
		return 1 // at least one vertex will be reactivated
	}
	return 0
}

func (e *Engine[V, M]) countActive() int64 {
	var n int64
	for _, h := range e.halted {
		if !h {
			n++
		}
	}
	return n
}

// TransportStats exposes the raw traffic counters.
func (e *Engine[V, M]) TransportStats() transport.Snapshot { return e.tr.Stats().Snapshot() }

// Snapshot captures the engine's state before Run as a step-0 baseline
// checkpoint, so a fault earlier than the first periodic checkpoint is still
// recoverable. (Mid-run checkpoints are taken by the engine itself through
// Config.Checkpoints.)
func (e *Engine[V, M]) Snapshot() State[V, M] {
	s := e.snapshot()
	s.Step = e.step
	return s
}

// snapshot captures restartable state, including undelivered messages.
func (e *Engine[V, M]) snapshot() State[V, M] {
	s := State[V, M]{
		Step:   e.step + 1,
		Values: append([]V(nil), e.values...),
		Halted: append([]bool(nil), e.halted...),
	}
	// Drain and re-send so the checkpoint owns a copy and the queue state
	// is unchanged.
	for w := 0; w < e.cfg.Cluster.Workers(); w++ {
		for _, batch := range e.tr.Drain(w) {
			s.Pending = append(s.Pending, PendingBatch[M]{To: w, Batch: append([]envelope[M](nil), batch...)})
			e.tr.Send(w, w, batch)
		}
	}
	return s
}

// Restore rewinds the engine to a checkpointed state (§3.6 recovery). The
// engine must have been built over the same graph and configuration.
func (e *Engine[V, M]) Restore(s State[V, M]) error {
	if e.cfg.Network != transport.InProcess {
		return errors.New("bsp: restore requires the in-process network")
	}
	if len(s.Values) != len(e.values) || len(s.Halted) != len(e.halted) {
		return errors.New("bsp: checkpoint shape does not match engine")
	}
	copy(e.values, s.Values)
	copy(e.halted, s.Halted)
	for w := 0; w < e.cfg.Cluster.Workers(); w++ {
		e.tr.Drain(w) // discard any in-flight state
	}
	for _, p := range s.Pending {
		e.tr.Send(p.To, p.To, append([]envelope[M](nil), p.Batch...))
	}
	for v := range e.inbox {
		e.inbox[v] = e.inbox[v][:0]
	}
	e.step = s.Step
	e.auditPrevSent = -1 // restored pending state has no audited SND phase
	return nil
}
