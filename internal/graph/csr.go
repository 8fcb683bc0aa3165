package graph

import "fmt"

// CSR is an immutable, flat, offset-indexed row store — the partition-local
// counterpart of Graph's global adjacency arrays. Engines build one CSR per
// neighbor-shaped structure at partition time (in-neighbor slots, local
// out-edges, replica placements) and then iterate Row slices in the
// superstep inner loops with zero per-vertex allocations and no map lookups.
//
// Rows preserve insertion order exactly: Row(i) returns the items put into
// row i in the order they were put, duplicates included. That
// property is what lets the flight-recorder gate prove the CSR migration
// changed nothing — neighbor iteration order equals the seed adjacency-list
// order, so message order, and therefore every exact-diffed counter, is
// byte-identical.
type CSR[T any] struct {
	offsets []int64 // len = rows+1, monotone, offsets[0] == 0
	items   []T     // len = offsets[rows]
}

// NumRows returns the number of rows.
func (c *CSR[T]) NumRows() int { return len(c.offsets) - 1 }

// NumItems returns the total number of items across all rows.
func (c *CSR[T]) NumItems() int { return len(c.items) }

// Row returns row i as a slice of the flat item array. The slice aliases
// the CSR's storage and must not be mutated or retained past the CSR's
// lifetime.
func (c *CSR[T]) Row(i int) []T {
	return c.items[c.offsets[i]:c.offsets[i+1]]
}

// RowLen returns len(Row(i)) without materializing the slice header.
func (c *CSR[T]) RowLen(i int) int {
	return int(c.offsets[i+1] - c.offsets[i])
}

// Validate checks the structural invariants: offsets present, monotone,
// anchored at zero, and spanning exactly the item array.
func (c *CSR[T]) Validate() error {
	if len(c.offsets) == 0 {
		return fmt.Errorf("graph: CSR: empty offsets (zero-row CSR still has offsets=[0])")
	}
	if c.offsets[0] != 0 {
		return fmt.Errorf("graph: CSR: offsets[0] = %d, want 0", c.offsets[0])
	}
	for i := 1; i < len(c.offsets); i++ {
		if c.offsets[i] < c.offsets[i-1] {
			return fmt.Errorf("graph: CSR: offsets not monotone at row %d: %d < %d",
				i-1, c.offsets[i], c.offsets[i-1])
		}
	}
	if got := c.offsets[len(c.offsets)-1]; got != int64(len(c.items)) {
		return fmt.Errorf("graph: CSR: offsets end at %d, want %d items", got, len(c.items))
	}
	return nil
}

// CSRFiller builds a CSR by count-then-fill: every row's length is fixed up
// front from a counting pass, and Put writes a row's items in order through
// that row's cursor. Building costs two allocations whatever the item count,
// and no item is ever copied twice.
type CSRFiller[T any] struct {
	counts []int32
	// c.offsets[i+1] starts at row i's first index and serves as row i's
	// cursor; once every row is full it equals row i's end, which is the
	// CSR offset.
	c CSR[T]
}

// NewCSRFiller returns a filler for a CSR whose row i holds counts[i] items.
// A zero count is an empty row, not an error. counts must stay unchanged
// until Done.
func NewCSRFiller[T any](counts []int32) CSRFiller[T] {
	offsets := make([]int64, len(counts)+1)
	var total int64
	for i, n := range counts {
		offsets[i+1] = total
		total += int64(n)
	}
	return CSRFiller[T]{counts: counts, c: CSR[T]{offsets: offsets, items: make([]T, total)}}
}

// Put adds item as the next item of row. Items within a row keep Put order;
// duplicates are kept (a multigraph edge appears as many times as it was
// put).
func (f *CSRFiller[T]) Put(row int, item T) {
	f.c.items[f.c.offsets[row+1]] = item
	f.c.offsets[row+1]++
}

// Done returns the filled CSR. Every row must have received exactly its
// count; anything else means the counting pass and the fill pass disagree,
// which is a bug in the caller, so Done panics. The filler must not be used
// after Done.
func (f *CSRFiller[T]) Done() CSR[T] {
	for i, n := range f.counts {
		if got := f.c.offsets[i+1] - f.c.offsets[i]; got != int64(n) {
			panic(fmt.Sprintf("graph: CSRFiller: row %d got %d items, counted %d", i, got, n))
		}
	}
	return f.c
}
