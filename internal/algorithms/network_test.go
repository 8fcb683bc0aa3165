package algorithms

import (
	"errors"
	"math"
	"testing"

	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/transport"
)

// These tests run the engines over real TCP loopback sockets carrying binary
// frames and require bit-identical results to the in-process transport: the
// distributed immutable view must not care what carries its sync messages.

func TestCyclopsPageRankOverTCP(t *testing.T) {
	g := gen.PowerLaw(300, 4, 15)
	run := func(network transport.Network) []float64 {
		e, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
			Cluster:       cluster.Flat(3, 1),
			MaxSupersteps: 8,
			MsgCodec:      graph.Float64Codec{},
			Network:       network,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Values()
	}
	local := run(transport.InProcess)
	tcp := run(transport.TCPLoopback)
	for v := range local {
		if local[v] != tcp[v] {
			t.Fatalf("vertex %d: in-process %g vs tcp %g", v, local[v], tcp[v])
		}
	}
}

func TestBSPPageRankOverTCP(t *testing.T) {
	g := gen.PowerLaw(300, 4, 16)
	run := func(network transport.Network) []float64 {
		e, err := bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
			Cluster:       cluster.Flat(3, 1),
			MaxSupersteps: 8,
			MsgCodec:      graph.Float64Codec{},
			Network:       network,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), e.Values()...)
	}
	local := run(transport.InProcess)
	tcp := run(transport.TCPLoopback)
	for v := range local {
		// BSP sums messages in arrival order, which differs between the
		// transports; allow last-ulp noise only.
		if math.Abs(local[v]-tcp[v]) > 1e-15 {
			t.Fatalf("vertex %d: in-process %g vs tcp %g", v, local[v], tcp[v])
		}
	}
}

func TestGASSSSPOverTCP(t *testing.T) {
	g := gen.Road(8, 8, 0.05, 4)
	want := SSSPRef(g, 0)
	e, err := gas.New[float64, float64](g, SSSPGAS{Source: 0}, gas.Config[float64, float64]{
		Cluster:       cluster.Flat(3, 1),
		MaxSupersteps: 300,
		ValCodec:      graph.Float64Codec{},
		AccCodec:      graph.Float64Codec{},
		Network:       transport.TCPLoopback,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := e.Values()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %g, want %g", v, got[v], want[v])
		}
	}
}

func TestCyclopsMTALSOverTCP(t *testing.T) {
	g := gen.Bipartite(40, 8, 4, 6)
	cfg := ALSConfig{Users: 40, D: 3, Lambda: 0.05, Sweeps: 2}
	want := ALSRef(g, cfg)
	e, err := cyclops.New[[]float64, []float64](g, ALSCyclops{Cfg: cfg},
		cyclops.Config[[]float64, []float64]{
			Cluster:       cluster.MT(2, 3, 2),
			MaxSupersteps: cfg.TotalSupersteps(),
			MsgCodec:      graph.Float64SliceCodec{},
			Network:       transport.TCPLoopback,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := e.Values()
	for v := range want {
		for i := range want[v] {
			if math.Abs(got[v][i]-want[v][i]) > 1e-9 {
				t.Fatalf("vertex %d dim %d: %g vs %g", v, i, got[v][i], want[v][i])
			}
		}
	}
}

// TestTCPRequiresCodec: with no codec there is nothing to encode frames
// with, so every engine's New surfaces transport.ErrNoCodec.
func TestTCPRequiresCodec(t *testing.T) {
	g := gen.PowerLaw(50, 3, 2)
	_, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
		Network: transport.TCPLoopback,
	})
	if !errors.Is(err, transport.ErrNoCodec) {
		t.Errorf("cyclops: err = %v, want ErrNoCodec", err)
	}
	_, err = bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
		Network: transport.TCPLoopback,
	})
	if !errors.Is(err, transport.ErrNoCodec) {
		t.Errorf("bsp: err = %v, want ErrNoCodec", err)
	}
	_, err = gas.New[float64, float64](g, SSSPGAS{Source: 0}, gas.Config[float64, float64]{
		Network:  transport.TCPLoopback,
		ValCodec: graph.Float64Codec{}, // half a codec pair is no codec
	})
	if !errors.Is(err, transport.ErrNoCodec) {
		t.Errorf("gas: err = %v, want ErrNoCodec", err)
	}
}

func TestCheckpointRequiresInProcess(t *testing.T) {
	g := gen.PowerLaw(50, 3, 2)
	_, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
		Network:         transport.TCPLoopback,
		CheckpointEvery: 2,
		Checkpoints:     func(cyclops.State[float64, float64]) error { return nil },
	})
	if err == nil {
		t.Error("cyclops: checkpointing over TCP must be rejected")
	}
	_, err = bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
		Network:         transport.TCPLoopback,
		CheckpointEvery: 2,
		Checkpoints:     func(bsp.State[float64, float64]) error { return nil },
	})
	if err == nil {
		t.Error("bsp: checkpointing over TCP must be rejected")
	}
}

func TestRestoreRequiresInProcess(t *testing.T) {
	g := gen.PowerLaw(50, 3, 2)
	e, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
		Network:  transport.TCPLoopback,
		MsgCodec: graph.Float64Codec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	n := g.NumVertices()
	err = e.Restore(cyclops.State[float64, float64]{
		Step: 1, Values: make([]float64, n), View: make([]float64, n), Active: make([]bool, n),
	})
	if err == nil {
		t.Error("restore over TCP must be rejected")
	}
}
