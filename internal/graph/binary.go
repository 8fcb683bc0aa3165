package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary format: a compact little-endian CSR dump that reloads in O(E)
// without parsing or re-sorting. Layout:
//
//	magic   [8]byte  "CYGRAPH1"
//	n       uint64   vertex count
//	m       uint64   edge count
//	outIdx  [n+1]uint64
//	outTo   [m]uint32
//	flags   uint8    bit 0: weights present
//	outW    [m]float64   (only when flags&1 != 0; all-ones graphs omit it)
//
// The in-CSR is rebuilt on load (cheaper than storing it).

var binaryMagic = [8]byte{'C', 'Y', 'G', 'R', 'A', 'P', 'H', '1'}

// maxPreSize caps how many items ReadBinary allocates on the word of the
// header: 24 bytes can claim 2^40 vertices and edges. It is large enough
// that inputs of up to about 2M vertices and edges load with no growth copy.
const maxPreSize = 1 << 21

// WriteBinary emits the graph in the binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var u64 [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	if err := put(uint64(g.n)); err != nil {
		return err
	}
	if err := put(uint64(g.NumEdges())); err != nil {
		return err
	}
	for _, off := range g.outIndex {
		if err := put(uint64(off)); err != nil {
			return err
		}
	}
	var u32 [4]byte
	for _, to := range g.outTo {
		binary.LittleEndian.PutUint32(u32[:], to)
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
	}
	weighted := false
	for _, w := range g.outW {
		if w != 1 {
			weighted = true
			break
		}
	}
	flags := byte(0)
	if weighted {
		flags = 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	if weighted {
		for _, wt := range g.outW {
			if err := put(math.Float64bits(wt)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary loads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph binary: magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph binary: bad magic %q", magic)
	}
	var u64 [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	n64, err := get()
	if err != nil {
		return nil, fmt.Errorf("graph binary: n: %w", err)
	}
	m64, err := get()
	if err != nil {
		return nil, fmt.Errorf("graph binary: m: %w", err)
	}
	const maxReasonable = 1 << 40
	if n64 > maxReasonable || m64 > maxReasonable {
		return nil, fmt.Errorf("graph binary: implausible sizes n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)
	// The header alone backs no allocation: outIndex and outTo are pre-sized
	// to at most maxPreSize items and grow only as their bytes arrive. Once
	// both have arrived, n and m are backed by 8(n+1)+4m bytes of input, so
	// the remaining arrays are sized from them.
	g := &Graph{n: n, outIndex: make([]int64, 0, min(n+1, maxPreSize))}
	// Offsets are validated as they stream in: the in-CSR rebuild below
	// walks outTo[outIndex[v]:outIndex[v+1]] and trusts every bound.
	var prev uint64
	for i := 0; i <= n; i++ {
		v, err := get()
		if err != nil {
			return nil, fmt.Errorf("graph binary: outIndex: %w", err)
		}
		if v < prev || (i == 0 && v != 0) || (i == n && v != m64) {
			return nil, fmt.Errorf("graph binary: outIndex[%d]=%d is not a non-decreasing offset from 0 to %d", i, v, m64)
		}
		g.outIndex = append(g.outIndex, int64(v))
		prev = v
	}
	g.outTo = make([]ID, 0, min(m, maxPreSize))
	var u32 [4]byte
	for i := 0; i < m; i++ {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, fmt.Errorf("graph binary: outTo: %w", err)
		}
		g.outTo = append(g.outTo, binary.LittleEndian.Uint32(u32[:]))
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("graph binary: flags: %w", err)
	}
	g.outW = make([]float64, m)
	g.inIndex = make([]int64, n+1)
	g.inFrom = make([]ID, m)
	g.inW = make([]float64, m)
	if flags&1 != 0 {
		for i := range g.outW {
			v, err := get()
			if err != nil {
				return nil, fmt.Errorf("graph binary: weights: %w", err)
			}
			g.outW[i] = math.Float64frombits(v)
		}
	} else {
		for i := range g.outW {
			g.outW[i] = 1
		}
	}

	// Rebuild the in-CSR by counting sort, as the Builder does.
	for _, to := range g.outTo {
		if int(to) >= n {
			return nil, fmt.Errorf("graph binary: edge target %d out of range", to)
		}
		g.inIndex[to+1]++
	}
	for v := 0; v < n; v++ {
		g.inIndex[v+1] += g.inIndex[v]
	}
	cursor := make([]int64, n)
	copy(cursor, g.inIndex[:n])
	for src := 0; src < n; src++ {
		for i := g.outIndex[src]; i < g.outIndex[src+1]; i++ {
			to := g.outTo[i]
			g.inFrom[cursor[to]] = ID(src)
			g.inW[cursor[to]] = g.outW[i]
			cursor[to]++
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph binary: %w", err)
	}
	return g, nil
}

// WriteBinaryFile writes the binary CSR format to a file path.
func WriteBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile loads the binary CSR format from a file path.
func ReadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
