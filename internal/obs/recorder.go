package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// Manifest is a recorded run's identity and totals — the header of a flight
// record. Everything in it except WallNanos is deterministic for a fixed
// (experiment, engine, seed, scale, cluster) tuple, which is what lets
// cyclops-report diff manifests exactly.
type Manifest struct {
	// Run is the run directory's base name (run-NNN-<engine>).
	Run string `json:"run"`
	// Experiment is the harness experiment id ("pagerank", "fig10", ...) or
	// the CLI's ad-hoc label; empty when unknown.
	Experiment string `json:"experiment,omitempty"`
	Engine     string `json:"engine"`
	Algorithm  string `json:"algorithm,omitempty"`
	Dataset    string `json:"dataset,omitempty"`
	// Partitioner is the vertex (or edge) partitioner name.
	Partitioner string  `json:"partitioner,omitempty"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale,omitempty"`
	Machines    int     `json:"machines,omitempty"`
	// WorkersPerMachine is threads per machine in the simulated cluster.
	WorkersPerMachine int `json:"workers_per_machine,omitempty"`
	Workers           int `json:"workers"`
	Vertices          int `json:"vertices"`
	Edges             int `json:"edges"`
	// Replicas is the replica (Cyclops) or mirror (GAS) count; 0 for Hama.
	Replicas   int64  `json:"replicas"`
	Supersteps int    `json:"supersteps"`
	StopReason string `json:"stop_reason"`
	// Recoveries counts checkpoint recoveries during the run; Replayed is
	// the supersteps they re-executed. Both zero on fault-free runs (the
	// fields are omitted, keeping fault-free manifests byte-stable across
	// this addition).
	Recoveries int `json:"recoveries,omitempty"`
	Replayed   int `json:"replayed_supersteps,omitempty"`
	// Messages and Bytes are the run's logical message totals (sum of the
	// per-superstep comm-matrix deltas).
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	// WireBytes is the encoded on-the-wire total (sum of the per-superstep
	// wire deltas): equal to Bytes when nothing serialises, the exact
	// binary-frame bytes when the engine has a message codec. Deterministic,
	// so diffed exactly. Omitted when zero to keep earlier manifests
	// byte-stable.
	WireBytes int64 `json:"wire_bytes,omitempty"`
	// ReplicaValueBytes is the replicated view's value memory (Replicas ×
	// sizeof(value)): the deterministic half of the paper's Table 4/5 memory
	// trade. Zero (omitted) for Hama, which buffers messages instead.
	ReplicaValueBytes int64 `json:"replica_value_bytes,omitempty"`
	// EdgeCut, PartitionBalance, ReplicationFactor and the ReplicaWorker*
	// trio stamp the load-time partition quality (§3.4, Fig 11): edges cut,
	// load balance (max/mean ≥ 1), replicas per vertex, and the min/median/max
	// of the per-worker replica placement. All deterministic for a fixed
	// (partitioner, seed) pair, so diffed exactly; zero values are omitted,
	// keeping earlier manifests byte-stable.
	EdgeCut           int64   `json:"edge_cut,omitempty"`
	PartitionBalance  float64 `json:"partition_balance,omitempty"`
	ReplicationFactor float64 `json:"replication_factor,omitempty"`
	ReplicaWorkerMin  int64   `json:"replica_worker_min,omitempty"`
	ReplicaWorkerMed  int64   `json:"replica_worker_median,omitempty"`
	ReplicaWorkerMax  int64   `json:"replica_worker_max,omitempty"`
	// ModelNanos is the cost model's deterministic run time estimate.
	ModelNanos float64 `json:"model_ns"`
	// WallNanos is measured wall time — the one machine-dependent field.
	WallNanos int64  `json:"wall_ns"`
	GoVersion string `json:"go_version"`
	GitRev    string `json:"git_rev,omitempty"`
	// ProfileDir and Profiles index the continuous-profiling harvest that
	// accompanied the run: the capture directory and the comma-separated
	// capture files retained when the run ended. Both empty (and omitted,
	// keeping earlier manifests byte-stable) when profiling was off.
	ProfileDir string `json:"profile_dir,omitempty"`
	Profiles   string `json:"profiles,omitempty"`
}

// RunMeta is the run context only the caller knows (the engines report graph
// shape and traffic; the CLI knows what experiment it was running and how the
// input was generated). Set it on the Recorder before the runs it describes.
type RunMeta struct {
	Experiment        string
	Algorithm         string
	Dataset           string
	Partitioner       string
	Seed              int64
	Scale             float64
	Machines          int
	WorkersPerMachine int
}

// seriesHeader is the column set of a record's series.csv: one row per
// superstep, deterministic for a fixed run configuration — byte-identical
// across same-seed runs (scheduling-independent counts, model costs and
// residual quantiles; no wall-clock). Phase wall times go to timings.csv.
var seriesHeader = []string{
	"step", "active", "changed", "messages", "redundant_messages",
	"redundant_ratio", "payload_bytes", "wire_bytes", "compute_units_max",
	"send_max", "recv_max",
	"residual_n", "residual_p50", "residual_p90", "residual_max",
	"skew_compute", "skew_sent", "skew_recv", "skew_active",
	"replicas", "replica_value_bytes", "model_ns",
}

// timingsHeader is the column set of timings.csv: the measured per-phase wall
// durations, kept apart from series.csv so machine noise never touches the
// deterministic artifact.
var timingsHeader = []string{"step", "prs_ns", "cmp_ns", "snd_ns", "syn_ns", "wall_ns"}

// Recorder is a Hooks consumer that turns every engine run into a durable run
// directory under its root: manifest.json (identity + totals), series.csv
// (deterministic per-superstep series) and timings.csv (wall-clock phase
// durations). One Recorder handles many consecutive runs — each
// OnRunStart/OnConverged pair becomes run-NNN-<engine>.
type Recorder struct {
	Nop

	root string

	mu        sync.Mutex
	seq       int
	meta      RunMeta
	cur       *recording
	manifests []Manifest
	err       error

	profileDir string
	profiles   func() []string
}

// recording is one run in flight.
type recording struct {
	manifest Manifest
	start    time.Time
	steps    []metrics.StepStats
	wall     []time.Duration // wall duration per superstep (start→end)
	stepAt   time.Time
	pending  map[int][]WorkerStats
	skew     []SkewStep
	msgs     []int64 // per-step comm-matrix message deltas
	bytes    []int64
	wire     []int64     // per-step comm-matrix wire-byte deltas
	spans    []span.Span // completed causal spans, in emission order
	mem      *memAttrib  // per-phase allocation attribution → mem.csv
	memSteps []MemStep
	heat     []HeatPartition // per-partition heat rows → heat.csv
	hot      []HotVertex     // final cumulative top-k hot set → hotset.csv
}

// NewRecorder creates the record root (if needed), verifies it is writable,
// and numbers new runs after any run-* directories already present, so
// recording into an existing root appends instead of overwriting.
func NewRecorder(root string) (*Recorder, error) {
	if err := EnsureWritableDir(root); err != nil {
		return nil, fmt.Errorf("obs: record dir: %w", err)
	}
	r := &Recorder{root: root}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("obs: record dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "run-") {
			continue
		}
		parts := strings.SplitN(e.Name(), "-", 3)
		if len(parts) < 2 {
			continue
		}
		if n, err := strconv.Atoi(parts[1]); err == nil && n > r.seq {
			r.seq = n
		}
	}
	return r, nil
}

// Dir returns the record root.
func (r *Recorder) Dir() string { return r.root }

// SetMeta sets the run context stamped into subsequent manifests.
func (r *Recorder) SetMeta(m RunMeta) {
	r.mu.Lock()
	r.meta = m
	r.mu.Unlock()
}

// SetExperiment updates only the experiment id (the bench driver switches it
// between experiments while the generator parameters stay fixed).
func (r *Recorder) SetExperiment(id string) {
	r.mu.Lock()
	r.meta.Experiment = id
	r.mu.Unlock()
}

// SetAlgorithm updates only the algorithm label.
func (r *Recorder) SetAlgorithm(algo string) {
	r.mu.Lock()
	r.meta.Algorithm = algo
	r.mu.Unlock()
}

// SetProfileSource connects a profiling harvester (its capture directory and
// a retained-files listing, typically Harvester.Dir and Harvester.Files) so
// finished manifests index the captures that accompanied the run.
func (r *Recorder) SetProfileSource(dir string, files func() []string) {
	r.mu.Lock()
	r.profileDir = dir
	r.profiles = files
	r.mu.Unlock()
}

// Err returns the first write error, if any. Check it after the runs finish:
// the Hooks interface has no error channel, so failures are deferred here.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Manifests returns the manifests of all completed runs, in run order.
func (r *Recorder) Manifests() []Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Manifest(nil), r.manifests...)
}

// OnRunStart implements Hooks: opens a new run directory.
func (r *Recorder) OnRunStart(info RunInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	m := Manifest{
		Run:               fmt.Sprintf("run-%03d-%s", r.seq, info.Engine),
		Experiment:        r.meta.Experiment,
		Engine:            info.Engine,
		Algorithm:         r.meta.Algorithm,
		Dataset:           r.meta.Dataset,
		Partitioner:       r.meta.Partitioner,
		Seed:              r.meta.Seed,
		Scale:             r.meta.Scale,
		Machines:          r.meta.Machines,
		WorkersPerMachine: r.meta.WorkersPerMachine,
		Workers:           info.Workers,
		Vertices:          info.Vertices,
		Edges:             info.Edges,
		Replicas:          info.Replicas,
		ReplicaValueBytes: info.ReplicaValueBytes,
		EdgeCut:           info.EdgeCut,
		PartitionBalance:  info.PartitionBalance,
		GoVersion:         runtime.Version(),
		GitRev:            gitRev(),
	}
	if info.Vertices > 0 {
		m.ReplicationFactor = float64(info.Replicas) / float64(info.Vertices)
	}
	if n := len(info.WorkerReplicas); n > 0 {
		sorted := append([]int64(nil), info.WorkerReplicas...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m.ReplicaWorkerMin = sorted[0]
		m.ReplicaWorkerMed = sorted[n/2]
		m.ReplicaWorkerMax = sorted[n-1]
	}
	r.cur = &recording{
		manifest: m,
		start:    time.Now(),
		pending:  make(map[int][]WorkerStats),
		mem:      newMemAttrib(),
	}
}

// OnSuperstepStart implements Hooks.
func (r *Recorder) OnSuperstepStart(step int) {
	r.mu.Lock()
	if r.cur != nil {
		r.cur.stepAt = time.Now()
		r.cur.mem.startStep(step)
	}
	r.mu.Unlock()
}

// OnPhase implements Hooks: attributes the allocation since the previous
// phase boundary to the phase that just ended (→ mem.csv, quarantined).
func (r *Recorder) OnPhase(step int, phase metrics.Phase, d time.Duration) {
	r.mu.Lock()
	if r.cur != nil {
		r.cur.mem.phase(phase)
	}
	r.mu.Unlock()
}

// OnWorkerStats implements Hooks: buffers per-worker shares for the skew
// coefficients, like the SkewProfiler.
func (r *Recorder) OnWorkerStats(ws WorkerStats) {
	r.mu.Lock()
	if r.cur != nil {
		r.cur.pending[ws.Step] = append(r.cur.pending[ws.Step], ws)
	}
	r.mu.Unlock()
}

// OnCommMatrix implements Hooks: accumulates the superstep's traffic totals.
func (r *Recorder) OnCommMatrix(step int, delta transport.MatrixSnapshot) {
	r.mu.Lock()
	if r.cur != nil {
		r.cur.msgs = append(r.cur.msgs, delta.TotalMessages())
		r.cur.bytes = append(r.cur.bytes, delta.TotalBytes())
		r.cur.wire = append(r.cur.wire, delta.TotalWireBytes())
	}
	r.mu.Unlock()
}

// OnSuperstepEnd implements Hooks: folds the superstep into the series.
func (r *Recorder) OnSuperstepEnd(step int, stats metrics.StepStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cur
	if c == nil {
		return
	}
	c.steps = append(c.steps, stats)
	c.memSteps = append(c.memSteps, c.mem.endStep())
	if c.stepAt.IsZero() {
		c.wall = append(c.wall, 0)
	} else {
		c.wall = append(c.wall, time.Since(c.stepAt))
	}
	shares := c.pending[step]
	delete(c.pending, step)
	compute := make([]int64, len(shares))
	sent := make([]int64, len(shares))
	recv := make([]int64, len(shares))
	active := make([]int64, len(shares))
	for i, ws := range shares {
		compute[i] = ws.ComputeUnits
		sent[i] = ws.Sent
		recv[i] = ws.Received
		active[i] = ws.Active
	}
	c.skew = append(c.skew, SkewStep{
		Step:     step,
		Compute:  imbalance(compute),
		Sent:     imbalance(sent),
		Received: imbalance(recv),
		Active:   imbalance(active),
	})
}

// OnHeat implements Hooks: appends the superstep's per-partition rows and
// keeps the latest cumulative hot set (the engines emit the run-so-far top-k
// each barrier, so the last one is the run's final hot set).
func (r *Recorder) OnHeat(d HeatStepData) {
	r.mu.Lock()
	if r.cur != nil {
		r.cur.heat = append(r.cur.heat, d.Partitions...)
		r.cur.hot = d.Hot
	}
	r.mu.Unlock()
}

// OnSpanEnd implements Hooks: appends the completed span to the run's
// stream. Emission order is deterministic (the engines emit post-barrier in
// worker order), so spans.csv inherits the byte-identical guarantee.
func (r *Recorder) OnSpanEnd(s span.Span) {
	r.mu.Lock()
	if r.cur != nil {
		r.cur.spans = append(r.cur.spans, s)
	}
	r.mu.Unlock()
}

// OnRecovery implements Hooks: counts the rollback in the manifest. The
// replayed supersteps appear again in series.csv — the flight record shows
// the replay, which is what makes a recovered run diffable against its
// fault-free twin.
func (r *Recorder) OnRecovery(e RecoveryEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		return
	}
	r.cur.manifest.Recoveries++
	r.cur.manifest.Replayed += e.Replayed()
}

// OnConverged implements Hooks: stamps totals and writes the run directory.
func (r *Recorder) OnConverged(step int, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cur
	r.cur = nil
	if c == nil {
		return
	}
	m := &c.manifest
	m.Supersteps = len(c.steps)
	m.StopReason = reason
	for _, n := range c.msgs {
		m.Messages += n
	}
	for _, n := range c.bytes {
		m.Bytes += n
	}
	for _, n := range c.wire {
		m.WireBytes += n
	}
	for _, s := range c.steps {
		m.ModelNanos += s.ModelNanos
	}
	m.WallNanos = int64(time.Since(c.start))
	if r.profiles != nil {
		m.ProfileDir = r.profileDir
		m.Profiles = strings.Join(r.profiles(), ",")
	}
	if err := r.write(c); err != nil && r.err == nil {
		r.err = err
		return
	}
	r.manifests = append(r.manifests, *m)
}

// write materialises one recording as a run directory. The data files are
// written first and manifest.json last — atomically, via temp + fsync +
// rename — because the /runs endpoint (and ReadManifests generally) treats
// the manifest's presence as "this run is complete": a listing racing an
// in-progress flush either sees the whole run or none of it, never a
// half-written manifest or a manifest whose series is still missing.
func (r *Recorder) write(c *recording) error {
	dir := filepath.Join(r.root, c.manifest.Run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "series.csv"), c.seriesCSV(), 0o644); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "timings.csv"), c.timingsCSV(), 0o644); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	// mem.csv is quarantined like timings.csv: allocation and GC columns are
	// machine-dependent, so the perf gate reads but never exact-compares them.
	if err := os.WriteFile(filepath.Join(dir, "mem.csv"), EncodeMemCSV(c.memSteps), 0o644); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.csv"), span.EncodeCSV(c.spans), 0o644); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	critpath := span.EncodeCritPathCSV(span.CriticalPath(c.spans))
	if err := os.WriteFile(filepath.Join(dir, "critpath.csv"), critpath, 0o644); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	// heat.csv and hotset.csv are deterministic like series.csv: counts only,
	// no wall-clock — byte-identical across same-seed runs.
	if err := os.WriteFile(filepath.Join(dir, "heat.csv"), EncodeHeatCSV(c.heat), 0o644); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "hotset.csv"), EncodeHotsetCSV(c.hot), 0o644); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	blob, err := json.MarshalIndent(c.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	if err := atomicWriteFile(filepath.Join(dir, "manifest.json"), append(blob, '\n')); err != nil {
		return fmt.Errorf("obs: record %s: %w", c.manifest.Run, err)
	}
	return nil
}

// atomicWriteFile writes path so readers only ever observe the old content
// or the complete new content: the bytes land in a temp file in the same
// directory, are fsynced, and the temp file is renamed over path.
func atomicWriteFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (c *recording) seriesCSV() []byte {
	var b strings.Builder
	b.WriteString(strings.Join(seriesHeader, ","))
	b.WriteByte('\n')
	for i, s := range c.steps {
		var msgBytes, wireBytes int64
		if i < len(c.bytes) {
			msgBytes = c.bytes[i]
		}
		if i < len(c.wire) {
			wireBytes = c.wire[i]
		}
		skew := SkewStep{Compute: 1, Sent: 1, Received: 1, Active: 1}
		if i < len(c.skew) {
			skew = c.skew[i]
		}
		cols := []string{
			strconv.Itoa(s.Step),
			strconv.FormatInt(s.Active, 10),
			strconv.FormatInt(s.Changed, 10),
			strconv.FormatInt(s.Messages, 10),
			strconv.FormatInt(s.RedundantMessages, 10),
			ftoa(s.RedundantRatio()),
			strconv.FormatInt(msgBytes, 10),
			strconv.FormatInt(wireBytes, 10),
			strconv.FormatInt(s.ComputeUnitsMax, 10),
			strconv.FormatInt(s.SendMax, 10),
			strconv.FormatInt(s.RecvMax, 10),
			strconv.FormatInt(s.ResidualN, 10),
			ftoa(s.ResidualP50),
			ftoa(s.ResidualP90),
			ftoa(s.ResidualMax),
			ftoa(skew.Compute),
			ftoa(skew.Sent),
			ftoa(skew.Received),
			ftoa(skew.Active),
			strconv.FormatInt(c.manifest.Replicas, 10),
			strconv.FormatInt(c.manifest.ReplicaValueBytes, 10),
			ftoa(s.ModelNanos),
		}
		b.WriteString(strings.Join(cols, ","))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func (c *recording) timingsCSV() []byte {
	var b strings.Builder
	b.WriteString(strings.Join(timingsHeader, ","))
	b.WriteByte('\n')
	for i, s := range c.steps {
		var wall time.Duration
		if i < len(c.wall) {
			wall = c.wall[i]
		}
		cols := []string{
			strconv.Itoa(s.Step),
			strconv.FormatInt(s.Durations[metrics.Parse].Nanoseconds(), 10),
			strconv.FormatInt(s.Durations[metrics.Compute].Nanoseconds(), 10),
			strconv.FormatInt(s.Durations[metrics.Send].Nanoseconds(), 10),
			strconv.FormatInt(s.Durations[metrics.Sync].Nanoseconds(), 10),
			strconv.FormatInt(wall.Nanoseconds(), 10),
		}
		b.WriteString(strings.Join(cols, ","))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// ReadManifests loads the manifests of every run-* directory under root,
// sorted by run name (i.e. recording order).
func ReadManifests(root string) ([]Manifest, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("obs: read record dir: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "run-") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(root, e.Name(), "manifest.json"))
		if err != nil {
			if os.IsNotExist(err) {
				continue // a foreign or half-written directory; skip it
			}
			return nil, fmt.Errorf("obs: read manifest: %w", err)
		}
		var m Manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("obs: parse %s/manifest.json: %w", e.Name(), err)
		}
		if m.Run == "" {
			m.Run = e.Name()
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out, nil
}

// gitRev reports the vcs revision baked into the binary by the Go toolchain,
// with a "-dirty" suffix for modified working trees. Empty for test binaries
// and builds outside a repository.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" && modified == "true" {
		rev += "-dirty"
	}
	return rev
}
