package gas

import (
	"fmt"
	"slices"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

// refCut is one worker's share of the vertex cut as the row-sliced reference
// builds it.
type refCut struct {
	verts    []localVertex[float64]
	inEdges  [][]gasEdge
	outSlots [][]int32
	mirrors  [][]mirrorRef
}

// referenceCut is the independent reference for New's ingress: the
// append-and-flatten construction the engine used before its count-then-fill
// ingress. Each worker keeps a global id → slot table, copies are created on
// first appearance and rows grow per slot in edge order. It returns each
// worker's share, the mirror count and the mirrors hosted per worker.
func referenceCut(g *graph.Graph, assign []int, k int) ([]refCut, int64, []int64) {
	n := g.NumVertices()
	cuts := make([]refCut, k)
	slotOf := make([][]int32, k)
	for w := range slotOf {
		slotOf[w] = make([]int32, n)
		for i := range slotOf[w] {
			slotOf[w][i] = -1
		}
	}
	ensure := func(w int, id graph.ID) int32 {
		if s := slotOf[w][id]; s >= 0 {
			return s
		}
		c := &cuts[w]
		s := int32(len(c.verts))
		slotOf[w][id] = s
		c.verts = append(c.verts, localVertex[float64]{id: id, masterWorker: -1})
		c.inEdges = append(c.inEdges, nil)
		c.outSlots = append(c.outSlots, nil)
		c.mirrors = append(c.mirrors, nil)
		return s
	}
	i := 0
	for v := 0; v < n; v++ {
		wts := g.OutWeights(graph.ID(v))
		for j, u := range g.OutNeighbors(graph.ID(v)) {
			w := assign[i]
			i++
			sv := ensure(w, graph.ID(v))
			su := ensure(w, u)
			cuts[w].inEdges[su] = append(cuts[w].inEdges[su], gasEdge{srcSlot: sv, weight: wts[j]})
			cuts[w].outSlots[sv] = append(cuts[w].outSlots[sv], su)
		}
	}
	for v := 0; v < n; v++ {
		hosted := false
		for w := 0; w < k; w++ {
			hosted = hosted || slotOf[w][v] >= 0
		}
		if !hosted {
			ensure(v%k, graph.ID(v))
		}
	}
	var mirrors int64
	perW := make([]int64, k)
	for v := 0; v < n; v++ {
		masterW := 0
		for slotOf[masterW][v] < 0 {
			masterW++
		}
		ms := slotOf[masterW][v]
		master := &cuts[masterW].verts[ms]
		master.master = true
		master.masterWorker = int32(masterW)
		master.masterSlot = ms
		for w := masterW + 1; w < k; w++ {
			if s := slotOf[w][v]; s >= 0 {
				cuts[w].verts[s].masterWorker = int32(masterW)
				cuts[w].verts[s].masterSlot = ms
				cuts[masterW].mirrors[ms] = append(cuts[masterW].mirrors[ms], mirrorRef{worker: int32(w), slot: s})
				mirrors++
				perW[w]++
			}
		}
	}
	return cuts, mirrors, perW
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

// TestCutMatchesReference checks the count-then-fill vertex cut against the
// row-sliced reference: every copy's identity and master link, every CSR row
// and the mirror counts, on a power-law graph, a road lattice with shortcuts
// and a small weighted multigraph with isolated vertices, under four cluster
// shapes and both edge partitioners. Empty workers compare by length.
func TestCutMatchesReference(t *testing.T) {
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
	multi := b.MustBuild()
	graphs := map[string]*graph.Graph{"wiki": wiki, "road": gen.Road(60, 60, 0.05, 3), "multi": multi}
	clusters := map[string]cluster.Config{
		"1x1": cluster.Flat(1, 1), "2x3": cluster.Flat(2, 3),
		"6x8": cluster.Flat(6, 8), "6x8/2": cluster.MT(6, 8, 2),
	}
	for gname, g := range graphs {
		for cname, c := range clusters {
			for _, p := range []EdgePartitioner{RandomVertexCut{}, GreedyVertexCut{}} {
				t.Run(gname+"/"+cname+"/"+p.Name(), func(t *testing.T) {
					e, err := New[float64, float64](g, stepProg{},
						Config[float64, float64]{Cluster: c, Partitioner: p})
					if err != nil {
						t.Fatal(err)
					}
					k := c.Workers()
					want, mirrors, perW := referenceCut(g, p.PartitionEdges(g, k), k)
					if e.mirrors != mirrors || !slices.Equal(e.mirrorsPerW, perW) {
						t.Fatalf("mirrors = %d %v, want %d %v", e.mirrors, e.mirrorsPerW, mirrors, perW)
					}
					for w, rc := range want {
						ws := e.ws[w]
						if len(ws.verts) != len(rc.verts) {
							t.Fatalf("worker %d: %d copies, want %d", w, len(ws.verts), len(rc.verts))
						}
						for s, lv := range rc.verts {
							// stepProg seeds every copy with its id and
							// starts every master active.
							lv.cache, lv.active = float64(lv.id), lv.master
							if ws.verts[s] != lv {
								t.Fatalf("worker %d slot %d = %+v, want %+v", w, s, ws.verts[s], lv)
							}
						}
						for name, err := range map[string]error{
							"inEdges":  sameRows(ws.inEdges, rc.inEdges),
							"outSlots": sameRows(ws.outSlots, rc.outSlots),
							"mirrors":  sameRows(ws.mirrors, rc.mirrors),
						} {
							if err != nil {
								t.Fatalf("worker %d %s: %v", w, name, err)
							}
						}
					}
				})
			}
		}
	}
}
