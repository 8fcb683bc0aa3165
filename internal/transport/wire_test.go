package transport

// Wire-overhead accounting tests: the invariants the memory observatory's
// wire/payload ratio gate stands on. The local transport never serialises,
// so wire == payload by definition; the RPC transport charges each remote
// cell exactly the frame bytes it writes, while self-sends stay at payload.

import (
	"testing"
)

func TestLocalWireEqualsPayload(t *testing.T) {
	tr := NewLocal[msg](3, PerSenderQueue, nil, nil)
	tr.Send(0, 2, []msg{{1, 1.5}, {2, 2.5}})
	tr.Send(1, 2, []msg{{3, 3.5}})
	tr.Send(0, 0, []msg{{4, 4.5}})

	s := tr.Stats().Snapshot()
	if s.Bytes == 0 || s.WireBytes != s.Bytes {
		t.Errorf("in-process wire %d != payload %d (nothing serialises)", s.WireBytes, s.Bytes)
	}
	if s.Encodes != 0 || s.Decodes != 0 {
		t.Errorf("in-process transport performed %d encodes / %d decodes", s.Encodes, s.Decodes)
	}
	if o := s.WireOverhead(); o != 1 {
		t.Errorf("in-process wire overhead = %v, want exactly 1", o)
	}
	m := tr.Stats().Matrix().Snapshot()
	for f := 0; f < 3; f++ {
		for to := 0; to < 3; to++ {
			if m.WireAt(f, to) != m.Bytes[f][to] {
				t.Errorf("cell (%d,%d): wire %d != payload %d", f, to, m.WireAt(f, to), m.Bytes[f][to])
			}
		}
	}
	if m.TotalWireBytes() != s.WireBytes {
		t.Errorf("matrix wire total %d != stats wire total %d", m.TotalWireBytes(), s.WireBytes)
	}
}

// TestRPCWireAccounting pins the per-cell wire books of the RPC transport;
// TestRPCBinaryRoundTrip pins the grand total and the frame op counts.
func TestRPCWireAccounting(t *testing.T) {
	codec := msgCodec{}
	tr, err := NewRPC[msg](2, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	a, b := []msg{{1, 1}, {2, 2}, {3, 3}}, []msg{{4, 4}}
	tr.Send(0, 1, a)
	tr.Send(0, 1, b)
	tr.Send(0, 0, []msg{{5, 5}}) // self-send: loopback, no serialisation
	tr.Send(1, 0, []msg{{6, 6}})
	tr.FinishRound(0)
	tr.FinishRound(1)
	tr.Drain(0)
	tr.Drain(1)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	m := tr.Stats().Matrix().Snapshot()
	if m.WireAt(0, 0) != m.Bytes[0][0] {
		t.Errorf("self-send cell: wire %d != payload %d", m.WireAt(0, 0), m.Bytes[0][0])
	}
	// The remote cell carries both data frames plus 0's round-end marker.
	if want := frameWireBytes(a, codec) + frameWireBytes(b, codec) + FrameHeaderBytes; m.WireAt(0, 1) != want {
		t.Errorf("remote cell (0,1): wire %d, want %d", m.WireAt(0, 1), want)
	}
	if m.Messages[0][1] != 4 || m.Bytes[0][1] != 4*16 {
		t.Errorf("remote cell (0,1): %d messages / %d payload bytes, want 4 / 64", m.Messages[0][1], m.Bytes[0][1])
	}
	s := tr.Stats().Snapshot()
	if m.TotalWireBytes() != s.WireBytes || m.TotalBytes() != s.Bytes || m.TotalMessages() != s.Messages {
		t.Errorf("matrix totals %d/%d/%d != stats %d/%d/%d", m.TotalMessages(), m.TotalBytes(),
			m.TotalWireBytes(), s.Messages, s.Bytes, s.WireBytes)
	}
}

func TestMicroWireBytes(t *testing.T) {
	const total, senders = 20000, 5
	h := MicroHama(total, senders)
	p := MicroPowerGraph(total, senders)
	c := MicroCyclops(total, senders)
	if h.PayloadBytes != microPayloadBytes(total) || p.PayloadBytes != h.PayloadBytes ||
		c.PayloadBytes != h.PayloadBytes {
		t.Errorf("payload bytes disagree: hama %d powergraph %d cyclops %d",
			h.PayloadBytes, p.PayloadBytes, c.PayloadBytes)
	}
	// Hama materialises gob frames; the exact size depends on gob's varint
	// compression (integer-valued floats encode short, so wire can land under
	// the 12-byte/message logical volume), but frames always exist.
	if h.WireBytes <= 0 {
		t.Errorf("hama micro: no wire bytes recorded")
	}
	// PowerGraph's hand-rolled encoding is exact: 12 bytes per record plus a
	// 16-byte span header per batch.
	var batches int64
	for s := 0; s < senders; s++ {
		lo, hi := microRange(total, senders, s)
		batches += int64((hi - lo + microBatch - 1) / microBatch)
	}
	if want := p.PayloadBytes + 16*batches; p.WireBytes != want {
		t.Errorf("powergraph micro: wire %d, want payload+headers %d", p.WireBytes, want)
	}
	// Cyclops writes replicas directly: payload moves, no frame exists.
	if c.WireBytes != 0 {
		t.Errorf("cyclops micro: wire %d, want 0 (replica sync serialises nothing)", c.WireBytes)
	}
}

// TestMicroEncodeDecodeSymmetry pins the Table 3 like-for-like accounting:
// the gob leg and the binary leg each decode exactly what they encode (one
// op per message on both sides), and the Cyclops leg serialises nothing.
func TestMicroEncodeDecodeSymmetry(t *testing.T) {
	const total, senders = 20000, 5
	h := MicroHama(total, senders)
	p := MicroPowerGraph(total, senders)
	c := MicroCyclops(total, senders)
	for _, r := range []MicroResult{h, p} {
		if r.EncodeOps != int64(total) {
			t.Errorf("%s micro: %d encode ops, want one per message (%d)", r.Impl, r.EncodeOps, total)
		}
		if r.DecodeOps != r.EncodeOps {
			t.Errorf("%s micro: decode ops %d != encode ops %d (serialisation must be symmetric)",
				r.Impl, r.DecodeOps, r.EncodeOps)
		}
	}
	if c.EncodeOps != 0 || c.DecodeOps != 0 {
		t.Errorf("cyclops micro: %d encode / %d decode ops, want 0/0 (direct writes)",
			c.EncodeOps, c.DecodeOps)
	}
}
