package cyclops

import (
	"fmt"
	"slices"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

// refView is one worker's view as the row-sliced reference builds it.
type refView struct {
	masters    []graph.ID
	in         [][]int32
	inWeights  [][]float64
	localOut   [][]int32
	replicas   [][]replicaRef
	outDeg     []int32
	inUnits    []int32
	replicaIDs []graph.ID
}

// referenceView is the independent reference for buildView: the
// append-and-flatten construction the engine used before its count-then-fill
// ingress. Rows grow per slot in source-major edge order, and a dense
// workers × |V| table maps each source to its replica slot, created on first
// use. It returns each worker's rows and the total replica count.
func referenceView(g *graph.Graph, assign *partition.Assignment) ([]refView, int64) {
	workers, n := assign.K, g.NumVertices()
	masterSlot := make([]int32, n)
	views := make([]refView, workers)
	for v, w := range assign.Of {
		masterSlot[v] = int32(len(views[w].masters))
		views[w].masters = append(views[w].masters, graph.ID(v))
	}
	for w := range views {
		rv := &views[w]
		m := len(rv.masters)
		rv.in = make([][]int32, m)
		rv.inWeights = make([][]float64, m)
		rv.localOut = make([][]int32, m)
		rv.replicas = make([][]replicaRef, m)
		for _, id := range rv.masters {
			rv.outDeg = append(rv.outDeg, int32(g.OutDegree(id)))
			rv.inUnits = append(rv.inUnits, int32(g.InDegree(id)))
		}
	}
	replicaSlot := make([][]int32, workers)
	for w := range replicaSlot {
		replicaSlot[w] = make([]int32, n)
		for i := range replicaSlot[w] {
			replicaSlot[w][i] = -1
		}
	}
	var replicas int64
	ensureReplica := func(w int, id graph.ID) int32 {
		if s := replicaSlot[w][id]; s >= 0 {
			return s
		}
		rv := &views[w]
		s := int32(len(rv.masters) + len(rv.replicaIDs))
		replicaSlot[w][id] = s
		rv.replicaIDs = append(rv.replicaIDs, id)
		rv.localOut = append(rv.localOut, nil)
		owner := &views[assign.Of[id]]
		owner.replicas[masterSlot[id]] = append(owner.replicas[masterSlot[id]],
			replicaRef{worker: int32(w), slot: s})
		replicas++
		return s
	}
	for u := 0; u < n; u++ {
		wu, su := assign.Of[u], masterSlot[u]
		wts := g.OutWeights(graph.ID(u))
		for i, v := range g.OutNeighbors(graph.ID(u)) {
			wv, sv := assign.Of[v], masterSlot[v]
			src := su
			if wu == wv {
				views[wu].localOut[su] = append(views[wu].localOut[su], sv)
			} else {
				src = ensureReplica(wv, graph.ID(u))
				views[wv].localOut[src] = append(views[wv].localOut[src], sv)
			}
			views[wv].in[sv] = append(views[wv].in[sv], src)
			views[wv].inWeights[sv] = append(views[wv].inWeights[sv], wts[i])
		}
	}
	return views, replicas
}

// sameRows reports the first difference between a CSR and reference rows.
func sameRows[T comparable](got graph.CSR[T], want [][]T) error {
	if got.NumRows() != len(want) {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), len(want))
	}
	if err := got.Validate(); err != nil {
		return err
	}
	for i, row := range want {
		if !slices.Equal(got.Row(i), row) {
			return fmt.Errorf("row %d = %v, want %v", i, got.Row(i), row)
		}
	}
	return nil
}

// sameSlice compares by length and elements, so an empty worker's nil and
// empty slices count as equal.
func sameSlice[T comparable](got, want []T) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("%v, want %v", got, want)
	}
	return nil
}

// ingressGraphs is the layout-equivalence matrix's graph axis: a power-law
// graph, a road lattice with shortcuts, and a small weighted multigraph
// with duplicate edges, self-loops and isolated vertices.
func ingressGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	wiki, _, err := gen.Dataset("wiki", 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	// 50 vertices, 400 weighted edges among the first 20, so 30 vertices
	// are isolated and most pairs repeat.
	b := graph.NewBuilder(50)
	state := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < 400; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		b.AddWeightedEdge(graph.ID(state%20), graph.ID(state/20%20), float64(state%97)/7)
	}
	multi, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"wiki":  wiki,
		"road":  gen.Road(60, 60, 0.05, 3),
		"multi": multi,
	}
}

var ingressClusters = map[string]cluster.Config{
	"1x1":   cluster.Flat(1, 1),
	"2x3":   cluster.Flat(2, 3),
	"6x8":   cluster.Flat(6, 8),
	"6x8/2": cluster.MT(6, 8, 2),
}

// TestViewMatchesReference checks the count-then-fill ingress against the
// row-sliced reference: every workerState array, row by row, on every graph,
// cluster shape and partitioner of the matrix. The flight-record gate's
// exact replica counts remain the end-to-end check.
func TestViewMatchesReference(t *testing.T) {
	graphs := ingressGraphs(t)
	for gname, g := range graphs {
		for cname, c := range ingressClusters {
			for _, p := range []partition.Partitioner{partition.Hash{}, partition.Multilevel{Seed: 1}} {
				t.Run(gname+"/"+cname+"/"+p.Name(), func(t *testing.T) {
					e, err := New[float64, float64](g, maxProg{},
						Config[float64, float64]{Cluster: c, Partitioner: p})
					if err != nil {
						t.Fatal(err)
					}
					want, replicas := referenceView(g, e.assign)
					if e.ingress.Replicas != replicas {
						t.Fatalf("Replicas = %d, want %d", e.ingress.Replicas, replicas)
					}
					for w, rv := range want {
						ws := e.ws[w]
						nm := len(rv.masters)
						for name, err := range map[string]error{
							"masters":    sameSlice(ws.masters, rv.masters),
							"replicaIDs": sameSlice(ws.replicaIDs, rv.replicaIDs),
							"outDeg":     sameSlice(ws.outDeg, rv.outDeg),
							"inUnits":    sameSlice(ws.inUnits, rv.inUnits),
							"in":         sameRows(ws.in, rv.in),
							"inWeights":  sameRows(ws.inWeights, rv.inWeights),
							"localOut":   sameRows(ws.localOut, rv.localOut),
							"replicas":   sameRows(ws.replicas, rv.replicas),
						} {
							if err != nil {
								t.Fatalf("worker %d %s: %v", w, name, err)
							}
						}
						if len(ws.values) != nm || len(ws.active) != nm || len(ws.next) != nm ||
							len(ws.view) != nm+len(rv.replicaIDs) || len(ws.out) != len(want) {
							t.Fatalf("worker %d: state lengths values=%d active=%d next=%d view=%d out=%d",
								w, len(ws.values), len(ws.active), len(ws.next), len(ws.view), len(ws.out))
						}
						// maxProg seeds every value and view entry with the
						// vertex id and starts every master active.
						for s, id := range append(slices.Clone(rv.masters), rv.replicaIDs...) {
							if ws.view[s] != float64(id) || s < nm && (ws.values[s] != float64(id) || ws.active[s] != 1) {
								t.Fatalf("worker %d slot %d (vertex %d): view=%g value/active wrong",
									w, s, id, ws.view[s])
							}
						}
					}
				})
			}
		}
	}
}
