package transport

import (
	"fmt"
	"sync/atomic"
)

// Matrix accumulates per-peer traffic: messages, payload bytes and wire
// bytes per (from, to) pair, flattened row-major over n×n cells of atomics.
// It is the transports' only traffic book — the row sums are a worker's
// egress, the column sums its ingress, and the grand totals are what Stats
// reports. Cells are updated once per batch with three atomic adds, so the
// hot-path cost is fixed and contention-free (distinct sender/receiver pairs
// touch distinct cells).
type Matrix struct {
	n        int
	messages []atomic.Int64
	bytes    []atomic.Int64
	wire     []atomic.Int64 // encoded frame bytes (== payload when nothing serialises)
}

func newMatrix(n int) *Matrix {
	return &Matrix{
		n:        n,
		messages: make([]atomic.Int64, n*n),
		bytes:    make([]atomic.Int64, n*n),
		wire:     make([]atomic.Int64, n*n),
	}
}

// Workers reports the matrix dimension.
func (m *Matrix) Workers() int { return m.n }

// add records msgs messages totalling payload estimated bytes and wire
// encoded bytes sent from `from` to `to`. Transports that do not serialise
// pass wire == payload; the RPC transport passes the frame bytes it wrote.
func (m *Matrix) add(from, to int, msgs, payload, wire int64) {
	i := from*m.n + to
	m.messages[i].Add(msgs)
	m.bytes[i].Add(payload)
	m.wire[i].Add(wire)
}

// total sums one counter array over every cell: a grand total.
func total(cells []atomic.Int64) int64 {
	var n int64
	for i := range cells {
		n += cells[i].Load()
	}
	return n
}

// Snapshot returns a plain-struct copy of the cumulative matrix, safe to
// read concurrently with traffic (per-cell atomicity; the matrix as a whole
// is a superstep-boundary artefact, which is when the engines snapshot it).
func (m *Matrix) Snapshot() MatrixSnapshot {
	s := newMatrixSnapshot(m.n)
	for f := 0; f < m.n; f++ {
		for t := 0; t < m.n; t++ {
			s.Messages[f][t] = m.messages[f*m.n+t].Load()
			s.Bytes[f][t] = m.bytes[f*m.n+t].Load()
			s.Wire[f][t] = m.wire[f*m.n+t].Load()
		}
	}
	return s
}

// MatrixSnapshot is a point-in-time copy of a Matrix: Messages[from][to],
// Bytes[from][to] (payload estimate) and Wire[from][to] (encoded frame
// bytes). The zero value acts as an all-zero matrix in Sub. Wire may be nil
// on snapshots built by hand (older tests, JSON without the field); all
// arithmetic treats a nil Wire as all-zero.
type MatrixSnapshot struct {
	Workers  int       `json:"workers"`
	Messages [][]int64 `json:"messages"`
	Bytes    [][]int64 `json:"bytes"`
	Wire     [][]int64 `json:"wire,omitempty"`
}

func newMatrixSnapshot(n int) MatrixSnapshot {
	s := MatrixSnapshot{
		Workers:  n,
		Messages: make([][]int64, n),
		Bytes:    make([][]int64, n),
		Wire:     make([][]int64, n),
	}
	for i := 0; i < n; i++ {
		s.Messages[i] = make([]int64, n)
		s.Bytes[i] = make([]int64, n)
		s.Wire[i] = make([]int64, n)
	}
	return s
}

// WireAt reads a wire cell, treating a nil Wire matrix as all-zero (hand-built
// snapshots and pre-wire JSON have no Wire field).
func (s MatrixSnapshot) WireAt(f, t int) int64 {
	if s.Wire == nil {
		return 0
	}
	return s.Wire[f][t]
}

// Sub returns s - prev cell-wise: the traffic of the interval between the
// two snapshots. A zero-value prev (Workers == 0) subtracts nothing.
func (s MatrixSnapshot) Sub(prev MatrixSnapshot) MatrixSnapshot {
	if prev.Workers == 0 {
		return s.Clone()
	}
	if prev.Workers != s.Workers {
		panic(fmt.Sprintf("transport: MatrixSnapshot.Sub dimension mismatch %d vs %d",
			s.Workers, prev.Workers))
	}
	d := newMatrixSnapshot(s.Workers)
	for f := range s.Messages {
		for t := range s.Messages[f] {
			d.Messages[f][t] = s.Messages[f][t] - prev.Messages[f][t]
			d.Bytes[f][t] = s.Bytes[f][t] - prev.Bytes[f][t]
			d.Wire[f][t] = s.WireAt(f, t) - prev.WireAt(f, t)
		}
	}
	return d
}

// AddInto accumulates other into s cell-wise. A zero-value s grows to
// other's dimension. It returns the sum (which aliases s's storage when s is
// non-zero).
func (s MatrixSnapshot) AddInto(other MatrixSnapshot) MatrixSnapshot {
	if s.Workers == 0 {
		return other.Clone()
	}
	if other.Workers == 0 {
		return s
	}
	if other.Workers != s.Workers {
		panic(fmt.Sprintf("transport: MatrixSnapshot.AddInto dimension mismatch %d vs %d",
			s.Workers, other.Workers))
	}
	if s.Wire == nil && other.Wire != nil {
		s.Wire = make([][]int64, s.Workers)
		for i := range s.Wire {
			s.Wire[i] = make([]int64, s.Workers)
		}
	}
	for f := range s.Messages {
		for t := range s.Messages[f] {
			s.Messages[f][t] += other.Messages[f][t]
			s.Bytes[f][t] += other.Bytes[f][t]
			if s.Wire != nil {
				s.Wire[f][t] += other.WireAt(f, t)
			}
		}
	}
	return s
}

// Clone returns a deep copy.
func (s MatrixSnapshot) Clone() MatrixSnapshot {
	c := newMatrixSnapshot(s.Workers)
	for i := range s.Messages {
		copy(c.Messages[i], s.Messages[i])
		copy(c.Bytes[i], s.Bytes[i])
		if s.Wire != nil {
			copy(c.Wire[i], s.Wire[i])
		}
	}
	return c
}

func rowSums(m [][]int64) []int64 {
	out := make([]int64, len(m))
	for i, row := range m {
		for _, v := range row {
			out[i] += v
		}
	}
	return out
}

func colSums(m [][]int64) []int64 {
	out := make([]int64, len(m))
	for _, row := range m {
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// Egress returns per-worker sent messages (row sums).
func (s MatrixSnapshot) Egress() []int64 { return rowSums(s.Messages) }

// Ingress returns per-worker received messages (column sums).
func (s MatrixSnapshot) Ingress() []int64 { return colSums(s.Messages) }

// EgressBytes returns per-worker sent bytes (row sums).
func (s MatrixSnapshot) EgressBytes() []int64 { return rowSums(s.Bytes) }

// IngressBytes returns per-worker received bytes (column sums).
func (s MatrixSnapshot) IngressBytes() []int64 { return colSums(s.Bytes) }

// TotalMessages returns the grand total of the message matrix. On a
// cumulative snapshot this equals Stats.Messages exactly.
func (s MatrixSnapshot) TotalMessages() int64 {
	var n int64
	for _, row := range s.Messages {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// TotalBytes returns the grand total of the byte matrix. On a cumulative
// snapshot this equals Stats.Bytes exactly.
func (s MatrixSnapshot) TotalBytes() int64 {
	var n int64
	for _, row := range s.Bytes {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// TotalWireBytes returns the grand total of the wire-byte matrix. On a
// cumulative snapshot this equals Stats.WireBytes exactly.
func (s MatrixSnapshot) TotalWireBytes() int64 {
	var n int64
	for _, row := range s.Wire {
		for _, v := range row {
			n += v
		}
	}
	return n
}
