package obs

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// Metric names exported by the Collector. The DESIGN.md observability
// section maps these to the paper's Figure 10 quantities.
const (
	MetricSupersteps  = "cyclops_supersteps_total"
	MetricSuperstep   = "cyclops_superstep"
	MetricActive      = "cyclops_active_vertices"
	MetricChanged     = "cyclops_changed_vertices"
	MetricMessages    = "cyclops_messages_total"
	MetricRedundant   = "cyclops_redundant_messages_total"
	MetricPhase       = "cyclops_phase_seconds"
	MetricWorkers     = "cyclops_workers"
	MetricReplication = "cyclops_replication_factor"
	MetricRuns        = "cyclops_runs_total"
	MetricRunsDone    = "cyclops_runs_completed_total"

	MetricTransportMessages   = "cyclops_transport_messages_total"
	MetricTransportBatches    = "cyclops_transport_batches_total"
	MetricTransportBytes      = "cyclops_transport_bytes_total"
	MetricTransportWireBytes  = "cyclops_transport_wire_bytes_total"
	MetricTransportEncodes    = "cyclops_transport_encodes_total"
	MetricTransportDecodes    = "cyclops_transport_decodes_total"
	MetricTransportLocked     = "cyclops_transport_locked_enqueues_total"
	MetricTransportRetries    = "cyclops_transport_retries_total"
	MetricTransportReconnects = "cyclops_transport_reconnects_total"

	// Fault-tolerance series (§3.6 recovery).
	MetricRecoveries         = "cyclops_recoveries_total"
	MetricReplayedSupersteps = "cyclops_replayed_supersteps_total"

	// Communication observatory series.
	MetricCommMessages    = "cyclops_comm_messages_total"
	MetricCommBytes       = "cyclops_comm_bytes_total"
	MetricCommWireBytes   = "cyclops_comm_wire_bytes_total"
	MetricWorkerEgress    = "cyclops_worker_egress_messages"
	MetricWorkerIngress   = "cyclops_worker_ingress_messages"
	MetricSkew            = "cyclops_skew_imbalance"
	MetricAuditViolations = "cyclops_audit_violations_total"

	// Causal span stream.
	MetricSpans = "cyclops_spans_total"

	// Heat observatory series.
	MetricHeatBoundary    = "cyclops_heat_boundary_messages"
	MetricHeatReplicaSync = "cyclops_heat_replica_sync_messages"
)

// Collector is a Hooks implementation that folds engine events into a
// Registry for the /metrics endpoint.
type Collector struct {
	reg *Registry

	runs        *Counter
	supersteps  *Counter
	stepGauge   *Gauge
	active      *Gauge
	changed     *Gauge
	messages    *Counter
	redundant   *Counter
	phase       *Histogram
	workers     *Gauge
	replication *Gauge
	recoveries  *Counter
	replayed    *Counter

	egressMu sync.Mutex
	egress   []int64 // cumulative per-worker sent messages, latest run
	ingress  []int64 // cumulative per-worker received messages, latest run
}

// NewCollector registers the standard engine metrics on reg and returns the
// hooks feeding them.
func NewCollector(reg *Registry) *Collector {
	return &Collector{
		reg:  reg,
		runs: reg.Counter(MetricRuns, "Engine runs started."),
		supersteps: reg.Counter(MetricSupersteps,
			"Supersteps completed across all runs."),
		stepGauge: reg.Gauge(MetricSuperstep,
			"Current superstep index of the latest run."),
		active: reg.Gauge(MetricActive,
			"Vertices that computed in the last superstep (Figure 10(2))."),
		changed: reg.Gauge(MetricChanged,
			"Computed vertices whose value changed in the last superstep."),
		messages: reg.Counter(MetricMessages,
			"Data messages sent, summed over supersteps (Figure 10(3))."),
		redundant: reg.Counter(MetricRedundant,
			"Messages from vertices whose value did not change (Figure 3(2))."),
		phase: reg.Histogram(MetricPhase,
			"Per-superstep phase durations (PRS/CMP/SND/SYN of Figure 10(1)).",
			"phase", DefaultDurationBuckets()),
		workers: reg.Gauge(MetricWorkers,
			"Workers (= graph partitions) of the latest run."),
		replication: reg.Gauge(MetricReplication,
			"Replicas per vertex of the latest run (Figure 11)."),
		recoveries: reg.Counter(MetricRecoveries,
			"Checkpoint recoveries performed after transient faults (§3.6)."),
		replayed: reg.Counter(MetricReplayedSupersteps,
			"Supersteps re-executed by checkpoint recoveries."),
	}
}

// Registry returns the registry the collector writes into.
func (c *Collector) Registry() *Registry { return c.reg }

// WatchTransport registers scrape-time counters over a transport snapshot
// source (typically Engine.TransportStats). Call once per engine; repeated
// calls rebind the source to the newest engine.
func (c *Collector) WatchTransport(fn func() transport.Snapshot) {
	c.reg.CounterFunc(MetricTransportMessages,
		"Messages through the transport layer.",
		func() float64 { return float64(fn().Messages) })
	c.reg.CounterFunc(MetricTransportBatches,
		"Batches through the transport layer.",
		func() float64 { return float64(fn().Batches) })
	c.reg.CounterFunc(MetricTransportBytes,
		"Estimated payload bytes through the transport layer (Table 4).",
		func() float64 { return float64(fn().Bytes) })
	c.reg.CounterFunc(MetricTransportWireBytes,
		"Encoded wire bytes through the transport layer (== payload bytes "+
			"when nothing serialises; binary frame bytes otherwise).",
		func() float64 { return float64(fn().WireBytes) })
	c.reg.CounterFunc(MetricTransportEncodes,
		"Frame encode operations performed by the transport layer.",
		func() float64 { return float64(fn().Encodes) })
	c.reg.CounterFunc(MetricTransportDecodes,
		"Frame decode operations performed by the transport layer.",
		func() float64 { return float64(fn().Decodes) })
	c.reg.CounterFunc(MetricTransportLocked,
		"Enqueues that serialised on a shared lock (zero for per-sender queues).",
		func() float64 { return float64(fn().LockedEnqueues) })
	c.reg.CounterFunc(MetricTransportRetries,
		"Send attempts repeated after a transient transport failure.",
		func() float64 { return float64(fn().Retries) })
	c.reg.CounterFunc(MetricTransportReconnects,
		"Connections re-established after a transport failure.",
		func() float64 { return float64(fn().Reconnects) })
}

// OnRunStart implements Hooks.
func (c *Collector) OnRunStart(info RunInfo) {
	c.runs.Inc()
	c.workers.Set(float64(info.Workers))
	if info.Vertices > 0 {
		c.replication.Set(float64(info.Replicas) / float64(info.Vertices))
	}
}

// OnSuperstepStart implements Hooks.
func (c *Collector) OnSuperstepStart(step int) {
	c.stepGauge.Set(float64(step))
}

// OnSpanStart implements Hooks (only completed spans are counted).
func (c *Collector) OnSpanStart(span.Span) {}

// OnSpanEnd implements Hooks: counts completed spans by kind.
func (c *Collector) OnSpanEnd(s span.Span) {
	c.reg.LabeledCounter(MetricSpans,
		"Completed causal spans, by kind.", "kind", s.Kind.String()).Inc()
}

// OnPhase implements Hooks.
func (c *Collector) OnPhase(step int, phase metrics.Phase, d time.Duration) {
	c.phase.Observe(phase.String(), d.Seconds())
}

// OnWorkerStats implements Hooks (per-worker data feeds the tracer; the
// registry keeps aggregate series only).
func (c *Collector) OnWorkerStats(WorkerStats) {}

// OnCommMatrix implements Hooks: exports each worker's cumulative egress and
// ingress message counts of the current run as labelled gauges.
func (c *Collector) OnCommMatrix(step int, delta transport.MatrixSnapshot) {
	c.egressMu.Lock()
	if step == 0 || len(c.egress) != delta.Workers {
		c.egress = make([]int64, delta.Workers)
		c.ingress = make([]int64, delta.Workers)
	}
	for w, v := range delta.Egress() {
		c.egress[w] += v
	}
	for w, v := range delta.Ingress() {
		c.ingress[w] += v
	}
	for w := range c.egress {
		label := fmt.Sprintf("%d", w)
		c.reg.LabeledGauge(MetricWorkerEgress,
			"Messages sent by each worker, cumulative over the latest run.",
			"worker", label).Set(float64(c.egress[w]))
		c.reg.LabeledGauge(MetricWorkerIngress,
			"Messages received by each worker, cumulative over the latest run.",
			"worker", label).Set(float64(c.ingress[w]))
	}
	c.egressMu.Unlock()
}

// OnViolation implements Hooks: counts auditor findings by kind.
func (c *Collector) OnViolation(v Violation) {
	c.reg.LabeledCounter(MetricAuditViolations,
		"Replica-invariant violations found by the auditor, by kind.",
		"kind", v.Kind).Inc()
}

// OnHeat implements Hooks: exports the superstep's boundary-message share
// and replica-sync volume — the two heat aggregates worth a live gauge; the
// full per-partition rows stay on /heat.
func (c *Collector) OnHeat(d HeatStepData) {
	var boundary, sync int64
	for _, p := range d.Partitions {
		boundary += p.OutBoundary
		sync += p.ReplicaSync
	}
	c.reg.Gauge(MetricHeatBoundary,
		"Messages that crossed a partition boundary in the latest superstep.").Set(float64(boundary))
	c.reg.Gauge(MetricHeatReplicaSync,
		"Replica/mirror synchronisation messages in the latest superstep.").Set(float64(sync))
}

// OnSuperstepEnd implements Hooks.
func (c *Collector) OnSuperstepEnd(step int, s metrics.StepStats) {
	c.supersteps.Inc()
	c.active.Set(float64(s.Active))
	c.changed.Set(float64(s.Changed))
	c.messages.Add(float64(s.Messages))
	c.redundant.Add(float64(s.RedundantMessages))
}

// OnRecovery implements Hooks.
func (c *Collector) OnRecovery(e RecoveryEvent) {
	c.recoveries.Inc()
	c.replayed.Add(float64(e.Replayed()))
}

// OnConverged implements Hooks.
func (c *Collector) OnConverged(step int, reason string) {
	c.reg.LabeledCounter(MetricRunsDone,
		"Engine runs completed, by termination reason.", "reason", reason).Inc()
}

// RegisterRuntime adds process-level gauges (goroutines, heap) to reg —
// cheap enough to evaluate at every scrape.
func RegisterRuntime(reg *Registry) {
	reg.GaugeFunc("go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("go_heap_sys_bytes", "Heap bytes obtained from the OS.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapSys)
		})
}
