package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFileParallelBasic(t *testing.T) {
	path := writeTemp(t, "# header\n0 1\n1 2 2.5\n2 0\n\n3 1\n")
	g, err := LoadFileParallel(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("|V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) || g.OutWeights(1)[0] != 2.5 {
		t.Fatal("weighted edge lost")
	}
}

func TestLoadFileParallelMatchesSequential(t *testing.T) {
	// A graph large enough that every worker gets a real range. Build the
	// expected graph directly from the same edges (LoadFile remaps ids in
	// first-appearance order, which would relabel vertices).
	var sb strings.Builder
	rng := rand.New(rand.NewSource(5))
	eb := NewBuilder(300)
	for i := 0; i < 5000; i++ {
		src, dst := rng.Intn(300), rng.Intn(300)
		sb.WriteString(itoa(src))
		sb.WriteByte(' ')
		sb.WriteString(itoa(dst))
		sb.WriteByte('\n')
		eb.AddEdge(ID(src), ID(dst))
	}
	path := writeTemp(t, sb.String())
	seq := eb.MustBuild()
	for _, workers := range []int{1, 2, 4, 7} {
		par, err := LoadFileParallel(path, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.NumVertices() != seq.NumVertices() || par.NumEdges() != seq.NumEdges() {
			t.Fatalf("workers=%d: %d/%d vs %d/%d", workers,
				par.NumVertices(), par.NumEdges(), seq.NumVertices(), seq.NumEdges())
		}
		// The builder sorts, so adjacency must be identical.
		for v := 0; v < seq.NumVertices(); v++ {
			sn, pn := seq.OutNeighbors(ID(v)), par.OutNeighbors(ID(v))
			if len(sn) != len(pn) {
				t.Fatalf("workers=%d vertex %d: degree %d vs %d", workers, v, len(pn), len(sn))
			}
			for i := range sn {
				if sn[i] != pn[i] {
					t.Fatalf("workers=%d vertex %d: adjacency differs", workers, v)
				}
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestLoadFileParallelEmptyAndMissing(t *testing.T) {
	path := writeTemp(t, "")
	g, err := LoadFileParallel(path, 4)
	if err != nil || g.NumVertices() != 0 {
		t.Fatalf("empty file: %v %v", g, err)
	}
	if _, err := LoadFileParallel(filepath.Join(t.TempDir(), "nope"), 2); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestLoadFileParallelBadInput(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "0 1 x\n", "1 2 3 4\n"} {
		path := writeTemp(t, bad)
		if _, err := LoadFileParallel(path, 2); err == nil {
			t.Errorf("input %q must fail", bad)
		}
	}
}

func TestLoadFileParallelMoreWorkersThanLines(t *testing.T) {
	path := writeTemp(t, "0 1\n")
	g, err := LoadFileParallel(path, 16)
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("tiny file: %v %v", g, err)
	}
	// workers < 1 clamps.
	g, err = LoadFileParallel(path, 0)
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("clamped workers: %v %v", g, err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 1, 1}, {1, 2, 3.5}, {4, 0, 1}, {2, 2, 0.25}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 5 || g2.NumEdges() != 4 {
		t.Fatalf("|V|=%d |E|=%d", g2.NumVertices(), g2.NumEdges())
	}
	for v := 0; v < 5; v++ {
		a, b := g.InNeighbors(ID(v)), g2.InNeighbors(ID(v))
		if len(a) != len(b) {
			t.Fatalf("in-degree of %d differs", v)
		}
	}
	if g2.OutWeights(1)[0] != 3.5 {
		t.Fatal("weight lost")
	}
}

func TestBinaryUnweightedOmitsWeights(t *testing.T) {
	weighted := mustGraph(t, 3, []Edge{{0, 1, 2}, {1, 2, 1}})
	unweighted := mustGraph(t, 3, []Edge{{0, 1, 1}, {1, 2, 1}})
	var wb, ub bytes.Buffer
	if err := WriteBinary(&wb, weighted); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&ub, unweighted); err != nil {
		t.Fatal(err)
	}
	if ub.Len() >= wb.Len() {
		t.Fatalf("unweighted encoding (%d bytes) should be smaller than weighted (%d)", ub.Len(), wb.Len())
	}
	g, err := ReadBinary(&ub)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutWeights(0)[0] != 1 {
		t.Fatal("unweighted reload must restore weight 1")
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	// n=1, m=2, outIndex=[0,5]: the last offset overruns the two targets
	// that follow, so the in-CSR rebuild would index past them.
	overrun := append([]byte{}, binaryMagic[:]...)
	for _, v := range []uint64{1, 2, 0, 5} {
		overrun = binary.LittleEndian.AppendUint64(overrun, v)
	}
	overrun = append(overrun, make([]byte, 2*4+1)...) // targets 0, 0; flags 0
	cases := [][]byte{
		nil,
		[]byte("NOTMAGIC"),
		append(append([]byte{}, binaryMagic[:]...), 1, 2, 3), // truncated header
		overrun,
	}
	if len(overrun) != 49 {
		t.Fatalf("offset-overrun input is %d bytes, want 49", len(overrun))
	}
	for _, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("corrupt input %q accepted", c)
		}
	}
	// Implausible sizes.
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	huge := make([]byte, 16)
	for i := range huge {
		huge[i] = 0xff
	}
	buf.Write(huge)
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("implausible sizes accepted")
	}

	// A plausible but unbacked header: n = m = 2^40, then EOF. Sizing
	// arrays from it would be a fatal out-of-memory throw, not an error;
	// the reader must fail on the missing bytes with bounded allocation.
	lie := append([]byte{}, binaryMagic[:]...)
	lie = binary.LittleEndian.AppendUint64(lie, 1<<40)
	lie = binary.LittleEndian.AppendUint64(lie, 1<<40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(lie))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("24-byte header claiming 2^40 vertices and edges accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("24-byte header allocated %d MB, want < 64 MB", grew>>20)
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	g := mustGraph(t, 4, []Edge{{0, 1, 1}, {2, 3, 7}})
	if err := WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 || g2.OutWeights(2)[0] != 7 {
		t.Fatal("file round trip lost data")
	}
	if _, err := ReadBinaryFile(filepath.Join(dir, "absent.bin")); err == nil {
		t.Fatal("missing file must error")
	}
}

// Property: text → binary → text preserves the exact edge multiset.
func TestBinaryPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		b := NewBuilder(n)
		m := rng.Intn(150)
		for i := 0; i < m; i++ {
			b.AddWeightedEdge(ID(rng.Intn(n)), ID(rng.Intn(n)), float64(rng.Intn(5)+1))
		}
		g := b.MustBuild()
		var buf bytes.Buffer
		if WriteBinary(&buf, g) != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil || g2.Validate() != nil {
			return false
		}
		a, bb := g.Edges(), g2.Edges()
		if len(a) != len(bb) {
			return false
		}
		for i := range a {
			if a[i] != bb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
