package cyclops

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"cyclops/internal/aggregate"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// pending holds a worker's publish results for the update phase. Compute
// must not mutate the view in place (other local vertices are still reading
// it), so publishes are staged here and applied after the compute barrier.
type pending[M any] struct {
	val   []M
	flags []uint8 // bit 0: publish; bit 1: activate
}

const (
	flagPublish  = 1
	flagActivate = 2
)

// Run executes supersteps until no vertex is active, the Halt function
// fires, or MaxSupersteps is reached.
func (e *Engine[V, M]) Run() (*metrics.Trace, error) {
	workers := e.cfg.Cluster.Workers()
	threads := e.cfg.Cluster.Normalize().Threads
	receivers := e.cfg.Cluster.Normalize().Receivers

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
			Replicas: e.ingress.Replicas,
			// The distributed immutable view caches one M per replica slot,
			// so the replicated values cost Replicas × sizeof(M) — the
			// deterministic replica side of the Table 4/5 memory trade.
			ReplicaValueBytes: e.ingress.Replicas * int64(unsafe.Sizeof(*new(M))),
			WorkerReplicas:    e.workerReplicas(),
			EdgeCut:           int64(e.assign.EdgeCut(e.g)),
			PartitionBalance:  e.assign.Balance(),
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

	// Cumulative per-vertex heat counters (hooks on only): replica-sync
	// messages caused and edges scanned, by master vertex. Each slot is
	// written only by the goroutines of the worker owning the master, so the
	// worker fan-outs below stay race-free.
	var heatMsgs, heatUnits []int64
	if hooks != nil {
		heatMsgs = make([]int64, e.g.NumVertices())
		heatUnits = make([]int64, e.g.NumVertices())
	}

	pend := make([]pending[M], workers)
	for w := range pend {
		pend[w] = pending[M]{
			val:   make([]M, e.ws[w].numMasters()),
			flags: make([]uint8, e.ws[w].numMasters()),
		}
	}

	// Steady-state scratch, allocated once and reused every superstep: the
	// per-worker counters, aggregator partials, compute contexts and span
	// buffers below are either fully overwritten each step or reset with
	// [:0]/clear. Nothing downstream retains them — the aggregate registry
	// folds partials into its own map, SetResiduals reduces to scalars, and
	// the obs hooks copy what they keep — so the superstep loop allocates
	// nothing for bookkeeping.
	computeUnits := make([]int64, workers)
	activeCounts := make([]int64, workers)
	sendCounts := make([]int64, workers)
	recvCounts := make([]int64, workers)
	recvBatches := make([]int64, workers)
	partials := make([][]aggregate.Values, workers)
	unitScratch := make([][]int64, workers)
	activeScratch := make([][]int64, workers)
	ctxs := make([][]*Context[V, M], workers)
	residuals := make([][]float64, workers)
	var resAll []float64
	var flat []aggregate.Values
	for w := 0; w < workers; w++ {
		partials[w] = make([]aggregate.Values, threads)
		unitScratch[w] = make([]int64, threads)
		activeScratch[w] = make([]int64, threads)
		ctxs[w] = make([]*Context[V, M], threads)
		for t := 0; t < threads; t++ {
			ctxs[w][t] = &Context[V, M]{e: e, ws: e.ws[w], local: make(aggregate.Values)}
		}
	}
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
	var wg sync.WaitGroup

	maxRecoveries := e.cfg.MaxRecoveries
	if maxRecoveries <= 0 {
		maxRecoveries = 3
	}
	recoveries := 0

	for e.step < e.cfg.MaxSupersteps {
		if e.inj != nil {
			e.inj.BeginStep(e.step)
		}
		stats := metrics.StepStats{Step: e.step}
		// Span bookkeeping (nil when hooks are off): per-worker phase
		// durations, drained batch provenance, wire-serialisation deltas.
		sd := obs.StepSpanData{Run: e.runSeq, Step: e.step}
		if hooks != nil {
			hooks.OnSuperstepStart(e.step)
			sd.StepStart = time.Since(runStart)
			hooks.OnSpanStart(obs.StepSpan(e.runSeq, e.step, sd.StepStart))
			// Tag this superstep's sync messages with its causal context;
			// the RECV drain links Deliver spans back to the sender's Send
			// span (same superstep — Cyclops drains within the step).
			for w := 0; w < workers; w++ {
				e.tr.Tag(w, span.Context{Run: e.runSeq, Step: int32(e.step), Worker: int32(w)})
			}
		}

		// CMP: active masters compute over the immutable view, striped
		// across T threads per worker.
		if hooks != nil {
			sd.ComputeStart = time.Since(runStart)
		}
		start := time.Now()
		var active, changedTotal atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ct := time.Now()
				ws := e.ws[w]
				unitCh := unitScratch[w]
				activeCh := activeScratch[w]
				var twg sync.WaitGroup
				for t := 0; t < threads; t++ {
					twg.Add(1)
					go func(t int) {
						defer twg.Done()
						ctx := ctxs[w][t]
						clear(ctx.local)
						var units, computed int64
						for s := t; s < ws.numMasters(); s += threads {
							if ws.active[s] == 0 {
								continue
							}
							ctx.setSlot(s)
							ctx.published = false
							ctx.pubActivate = false
							e.prog.Compute(ctx)
							computed++
							units += int64(ws.inUnits[s])
							if heatUnits != nil {
								// Threads stride disjoint slots, so each
								// vertex entry has exactly one writer.
								heatUnits[ws.masters[s]] += int64(ws.inUnits[s])
							}
							if ctx.published {
								pend[w].val[s] = ctx.pubVal
								f := uint8(flagPublish)
								if ctx.pubActivate {
									f |= flagActivate
								}
								pend[w].flags[s] = f
							}
						}
						partials[w][t] = ctx.local
						unitCh[t] = units
						activeCh[t] = computed
					}(t)
				}
				twg.Wait()
				var units, computed int64
				for t := 0; t < threads; t++ {
					units += unitCh[t]
					computed += activeCh[t]
				}
				computeUnits[w] = units
				activeCounts[w] = computed
				active.Add(computed)
				if computeDur != nil {
					computeDur[w] = time.Since(ct)
				}
			}(w)
		}
		wg.Wait()
		stats.Durations[metrics.Compute] = time.Since(start)
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Compute, stats.Durations[metrics.Compute])
		}

		// SND: apply publishes to the local view, perform lock-free local
		// activation, and send one sync message per replica of each
		// changed/activating master (§3.5). Private per-destination
		// out-queues avoid any shared-lock contention.
		if hooks != nil {
			sd.SendStart = time.Since(runStart)
			for w := 0; w < workers; w++ {
				serNs0[w] = e.tr.SerializeNanos(w)
			}
		}
		start = time.Now()
		var redundant atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st := time.Now()
				ws := e.ws[w]
				// Reuse the per-destination batch buffers: last superstep's
				// batches were drained and applied before its barrier, so
				// their backing arrays are free again.
				out := ws.out
				for to := range out {
					out[to] = out[to][:0]
				}
				residuals[w] = residuals[w][:0]
				var sent, changed int64
				for s := 0; s < ws.numMasters(); s++ {
					f := pend[w].flags[s]
					if f == 0 {
						continue
					}
					pend[w].flags[s] = 0
					val := pend[w].val[s]
					activate := f&flagActivate != 0
					if e.cfg.Residual != nil {
						residuals[w] = append(residuals[w], e.cfg.Residual(ws.view[s], val))
					}
					valueChanged := e.cfg.Equal == nil || !e.cfg.Equal(ws.view[s], val)
					reps := ws.replicas.Row(s)
					if !valueChanged && !activate {
						// Republishing an identical value with no activation
						// is the redundant traffic BSP cannot avoid; Cyclops
						// suppresses it entirely.
						redundant.Add(int64(len(reps)))
						continue
					}
					if valueChanged {
						ws.view[s] = val
						changed++
					}
					if activate {
						for _, ls := range ws.localOut.Row(s) {
							atomic.StoreUint32(&ws.next[ls], 1)
						}
					}
					// Send the view value, not the raw publish: when Equal
					// suppressed a sub-epsilon change the master's view kept
					// the old value, and replicas must match it exactly
					// (§3.4's consistency invariant, checked by Audit).
					for _, ref := range reps {
						out[ref.worker] = append(out[ref.worker],
							syncMsg[M]{Slot: ref.slot, Val: ws.view[s], Activate: activate})
						sent++
					}
					if heatMsgs != nil {
						heatMsgs[ws.masters[s]] += int64(len(reps))
					}
				}
				for to := range out {
					e.tr.Send(w, to, out[to])
				}
				e.tr.FinishRound(w)
				sendCounts[w] = sent
				changedTotal.Add(changed)
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
		stats.Durations[metrics.Send] = time.Since(start)
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Send, stats.Durations[metrics.Send])
		}

		// RECV: replica updates, parallel across R receivers per worker.
		// Each replica has exactly one writer per superstep, so updates are
		// lock-free and there is no parse phase (§4.1).
		if hooks != nil {
			sd.ParseStart = time.Since(runStart)
		}
		start = time.Now()
		var auditPerW [][]obs.Violation
		if e.cfg.Audit {
			auditPerW = make([][]obs.Violation, workers)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pt := time.Now()
				ws := e.ws[w]
				batches := e.tr.Drain(w)
				var recv int64
				for _, b := range batches {
					recv += int64(len(b))
				}
				recvBatches[w] = int64(len(batches))
				if e.cfg.Audit {
					auditPerW[w] = e.auditDeliveries(w, batches)
				}
				var rwg sync.WaitGroup
				for r := 0; r < receivers; r++ {
					rwg.Add(1)
					go func(r int) {
						defer rwg.Done()
						// The Drain batches captured here never outlive the
						// round: rwg.Wait below joins every receiver before
						// the superstep barrier, and the next Drain happens
						// a full barrier later.
						for bi := r; bi < len(batches); bi += receivers { //lint:allow bufretain receiver goroutines are joined by rwg.Wait before the next Drain
							for _, m := range batches[bi] {
								ws.view[m.Slot] = m.Val
								if m.Activate {
									for _, ls := range ws.localOut.Row(int(m.Slot)) {
										atomic.StoreUint32(&ws.next[ls], 1)
									}
								}
							}
						}
					}(r)
				}
				rwg.Wait()
				recvCounts[w] = recv
				if parseDur != nil {
					parseDur[w] = time.Since(pt)
					delivs[w] = e.tr.LastDeliveries(w)
				}
			}(w)
		}
		wg.Wait()
		stats.Durations[metrics.Parse] = time.Since(start) // replica apply ≈ Cyclops' PRS
		if hooks != nil {
			hooks.OnPhase(e.step, metrics.Parse, stats.Durations[metrics.Parse])
		}

		// Audit: with all replicas refreshed and the barrier passed, every
		// replica must now equal its master's published view value.
		var violations []obs.Violation
		if e.cfg.Audit {
			for _, vs := range auditPerW {
				violations = append(violations, vs...)
			}
			violations = append(violations, e.auditViewConsistency()...)
		}

		// SYN: hierarchical or flat barrier — fold aggregates, swap
		// activation buffers, decide termination.
		start = time.Now()
		flat = flat[:0]
		for w := range partials {
			flat = append(flat, partials[w]...)
		}
		e.agg.Fold(flat)

		var nextActive int64
		for w := 0; w < workers; w++ {
			ws := e.ws[w]
			// The WaitGroup join above is the happens-before edge: every
			// atomic store to ws.next happened in a worker goroutine that
			// has since exited, so the barrier phase may read and reset the
			// flags plainly.
			copy(ws.active, ws.next) //lint:allow atomicmix post-barrier, workers joined via WaitGroup
			for s := range ws.next { //lint:allow atomicmix post-barrier, workers joined via WaitGroup
				if ws.next[s] != 0 { //lint:allow atomicmix post-barrier, workers joined via WaitGroup
					nextActive++
					ws.next[s] = 0 //lint:allow atomicmix post-barrier, workers joined via WaitGroup
				}
			}
		}

		var computeMax, sendMax, recvMax, sentTotal int64
		for w := 0; w < workers; w++ {
			if computeUnits[w] > computeMax {
				computeMax = computeUnits[w]
			}
			if sendCounts[w] > sendMax {
				sendMax = sendCounts[w]
			}
			if recvCounts[w] > recvMax {
				recvMax = recvCounts[w]
			}
			sentTotal += sendCounts[w]
		}
		stats.Active = active.Load()
		stats.Changed = changedTotal.Load()
		stats.Messages = sentTotal
		stats.RedundantMessages = redundant.Load()
		if e.cfg.Residual != nil {
			resAll = resAll[:0]
			for _, rs := range residuals {
				resAll = append(resAll, rs...)
			}
			stats.SetResiduals(resAll)
		}
		stats.ComputeUnitsMax = computeMax
		stats.SendMax = sendMax
		stats.RecvMax = recvMax
		barrier := e.model.FlatBarrier(workers)
		if e.trace.Engine == "cyclopsmt" {
			barrier = e.model.HierarchicalBarrier(e.cfg.Cluster.Machines, threads)
		}
		stats.ModelNanos = e.model.StepCost(
			computeMax, sendMax, recvMax,
			threads, receivers, workers, false, barrier)
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
			// Heat: every Cyclops message is a replica sync (local edges read
			// shared memory; replicas exist only for spanning edges), so the
			// sync column is the full send count.
			hooks.OnHeat(obs.HeatStepData{
				Step:       e.step,
				Partitions: obs.BuildHeatPartitions(e.step, commDelta, activeCounts, computeUnits, sendCounts),
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
			sd.Sent = sendCounts
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
					return e.trace, fmt.Errorf("cyclops: recovery: load checkpoint: %w", lerr)
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
					return e.trace, fmt.Errorf("cyclops: recovery: %w", rerr)
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
			return e.trace, fmt.Errorf("cyclops: transport: %w", err)
		}

		if len(violations) > 0 {
			if hooks != nil {
				hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
				hooks.OnConverged(e.step, obs.ReasonAuditFailed)
			}
			return e.trace, fmt.Errorf("cyclops: %w", &obs.AuditError{Violations: violations})
		}

		if e.cfg.CheckpointEvery > 0 && e.cfg.Checkpoints != nil &&
			(e.step+1)%e.cfg.CheckpointEvery == 0 {
			if err := e.cfg.Checkpoints(e.snapshot()); err != nil {
				if hooks != nil {
					hooks.OnSpanEnd(obs.RunSpan(e.runSeq, runWall))
					hooks.OnConverged(e.step, obs.ReasonFault)
				}
				return e.trace, fmt.Errorf("cyclops: checkpoint at step %d: %w", e.step, err)
			}
		}
		if e.cfg.OnStep != nil {
			e.cfg.OnStep(e.step, e)
		}

		if nextActive == 0 {
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
		return e.trace, fmt.Errorf("cyclops: transport: %w", err)
	}
	return e.trace, nil
}
