package transport

import (
	"encoding/binary"

	"cyclops/internal/graph"
	"cyclops/internal/obs/span"
)

// Binary frame format — the RPC transport's only wire format. A frame is
// one Send batch (or a round-end marker) with a fixed header, little-endian
// throughout:
//
//	[4B length]  bytes that follow the prefix (flags..messages)
//	[1B flags]   bit 0 = round-end marker
//	[4B from]    sender worker id
//	[16B tag]    span context: run int64, step int32, worker int32
//	[4B count]   number of messages
//	[count × M]  messages, each encoded by the graph.Codec
//
// The header is fixed-size even when untagged (a zero context) so a frame's
// wire size is a pure function of its batch — that is what lets the
// in-process transport charge identical byte counts without materializing
// frames, keeping the exact-diffed wire accounting deterministic across
// transports.
const (
	frameFlagEnd byte = 1 << 0
	// FrameHeaderBytes is the fixed per-frame overhead: length prefix,
	// flags, sender, span tag, and message count.
	FrameHeaderBytes = 4 + 1 + 4 + 16 + 4
)

// appendFrame encodes one frame onto dst and returns the extended slice.
// dst is an arena-style per-peer buffer: steady-state calls reuse its
// capacity and allocate nothing.
//
//lint:hotpath
func appendFrame[M any](dst []byte, from int, end bool, tag span.Context, batch []M, codec graph.Codec[M]) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, backpatched below
	var flags byte
	if end {
		flags |= frameFlagEnd
	}
	dst = append(dst, flags)
	dst = graph.AppendUint32(dst, uint32(from))
	dst = graph.AppendUint64(dst, uint64(tag.Run))
	dst = graph.AppendUint32(dst, uint32(tag.Step))
	dst = graph.AppendUint32(dst, uint32(tag.Worker))
	dst = graph.AppendUint32(dst, uint32(len(batch)))
	for i := range batch {
		dst = codec.Append(dst, batch[i])
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// decodeFrameBody parses a frame body (everything after the length prefix).
// The batch is decoded into scratch when its capacity suffices, else into a
// fresh slice; either way decoding is allocation-free per message. Callers
// that hand the batch off (the receive loop transfers ownership to the inbox)
// pass nil scratch; callers that recycle batches get true zero-alloc
// steady-state decoding.
//
//lint:hotpath
func decodeFrameBody[M any](body []byte, codec graph.Codec[M], scratch []M) (from int, end bool, tag span.Context, batch []M, err error) {
	if len(body) < FrameHeaderBytes-4 {
		return 0, false, tag, nil, graph.ErrShortBuffer
	}
	flags := body[0]
	if flags&^frameFlagEnd != 0 {
		// Undefined flag bits: a peer speaking a newer (or corrupted) frame
		// dialect. Reject before trusting the rest of the header.
		return 0, false, tag, nil, ErrFrameCorrupt
	}
	end = flags&frameFlagEnd != 0
	from = int(binary.LittleEndian.Uint32(body[1:]))
	tag.Run = int64(binary.LittleEndian.Uint64(body[5:]))
	tag.Step = int32(binary.LittleEndian.Uint32(body[13:]))
	tag.Worker = int32(binary.LittleEndian.Uint32(body[17:]))
	count := int(binary.LittleEndian.Uint32(body[21:]))
	rest := body[25:]
	if count > len(rest) {
		// Every codec encodes a message into at least one byte (the
		// graph.Codec contract), so a count exceeding the remaining bytes is
		// provably a lie — reject it before sizing the batch allocation to
		// an attacker-controlled header field.
		return 0, false, tag, nil, graph.ErrShortBuffer
	}
	if count > 0 {
		if cap(scratch) >= count {
			batch = scratch[:count]
		} else {
			batch = make([]M, count) //lint:allow allocfree cold path: grows only until scratch capacity catches up, and nil-scratch callers transfer ownership
		}
		for i := 0; i < count; i++ {
			var n int
			batch[i], n, err = codec.Decode(rest)
			if err != nil {
				return 0, false, tag, nil, err
			}
			rest = rest[n:]
		}
	}
	if len(rest) != 0 {
		return 0, false, tag, nil, graph.ErrShortBuffer
	}
	return from, end, tag, batch, nil
}
