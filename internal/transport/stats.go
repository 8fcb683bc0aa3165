// Package transport carries messages between the simulated cluster's
// workers. It provides two in-process queue disciplines that reproduce the
// communication structures compared in the paper — Hama's locked global
// in-queue (every sender contends on one mutex per receiver, §2.2.2) and
// Cyclops' per-sender sub-queues (each slot has a single writer, so enqueue
// is contention-free, §4.1) — plus a real binary-frames-over-TCP RPC
// transport and the Table 3 message-passing microbenchmark. All transports
// count messages, batches and estimated bytes so the harness can report the
// communication volumes of Figures 10(3) and Table 4 exactly.
package transport

import (
	"fmt"
	"sync/atomic"
)

// Stats accumulates traffic counters. The message, payload-byte and
// wire-byte totals are the grand totals of the per-peer Matrix it owns —
// one book, bumped once per batch; the scalar counters below have no
// per-peer refinement. All counters are atomic and may be read concurrently
// with traffic.
type Stats struct {
	matrix     *Matrix
	batches    atomic.Int64
	encodes    atomic.Int64 // frame encode operations
	decodes    atomic.Int64 // frame decode operations
	enqueues   atomic.Int64 // enqueue operations that took the shared lock
	retries    atomic.Int64 // send attempts repeated after a transient failure
	reconnects atomic.Int64 // connections re-established after a failure
}

// count records one batch of msgs messages sent from→to: its payload
// estimate and wire bytes go to the matrix cell, and locked marks an
// enqueue that serialised on a shared lock.
func (s *Stats) count(from, to int, msgs, payload, wire int64, locked bool) {
	s.matrix.add(from, to, msgs, payload, wire)
	s.batches.Add(1)
	if locked {
		s.enqueues.Add(1)
	}
}

// Matrix exposes the per-peer traffic counters: messages, payload bytes and
// wire bytes per (sender, receiver) pair. Its grand totals are Messages,
// Bytes and WireBytes.
func (s *Stats) Matrix() *Matrix { return s.matrix }

// Messages reports the total messages sent.
func (s *Stats) Messages() int64 { return total(s.matrix.messages) }

// Batches reports the total batches sent.
func (s *Stats) Batches() int64 { return s.batches.Load() }

// Bytes reports the total estimated payload bytes sent.
func (s *Stats) Bytes() int64 { return total(s.matrix.bytes) }

// WireBytes reports the total encoded bytes sent. Equal to Bytes on
// transports that do not serialise; on the RPC transport it also counts
// every frame header and round-end marker.
func (s *Stats) WireBytes() int64 { return total(s.matrix.wire) }

// Encodes reports the number of frame encode operations performed.
func (s *Stats) Encodes() int64 { return s.encodes.Load() }

// Decodes reports the number of frame decode operations performed.
func (s *Stats) Decodes() int64 { return s.decodes.Load() }

// LockedEnqueues reports how many enqueues serialised on a shared lock —
// zero for the per-sender discipline, equal to Batches for the global queue.
func (s *Stats) LockedEnqueues() int64 { return s.enqueues.Load() }

// Retries reports how many send attempts were repeated after a transient
// failure. Always zero for the in-process transports.
func (s *Stats) Retries() int64 { return s.retries.Load() }

// Reconnects reports how many connections were re-established after a
// failure. Always zero for the in-process transports.
func (s *Stats) Reconnects() int64 { return s.reconnects.Load() }

// Snapshot is a plain-struct copy of the counters for reporting.
type Snapshot struct {
	Messages, Batches, Bytes, LockedEnqueues int64
	// WireBytes is the encoded on-the-wire byte count; Encodes and Decodes
	// count frame serialisation operations (zero for in-process transports).
	WireBytes, Encodes, Decodes int64
	Retries, Reconnects         int64
}

// Snapshot returns a copy of the current counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Messages:       s.Messages(),
		Batches:        s.Batches(),
		Bytes:          s.Bytes(),
		WireBytes:      s.WireBytes(),
		Encodes:        s.Encodes(),
		Decodes:        s.Decodes(),
		LockedEnqueues: s.LockedEnqueues(),
		Retries:        s.Retries(),
		Reconnects:     s.Reconnects(),
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf("msgs=%d batches=%d bytes=%d wire=%d locked=%d",
		s.Messages, s.Batches, s.Bytes, s.WireBytes, s.LockedEnqueues)
}

// WireOverhead reports the wire/payload byte ratio — the serialisation
// envelope factor. Zero when nothing was sent.
func (s Snapshot) WireOverhead() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.WireBytes) / float64(s.Bytes)
}
