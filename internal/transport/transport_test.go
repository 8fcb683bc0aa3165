package transport

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

type msg struct {
	V uint32
	X float64
}

func TestLocalDeliversBothModes(t *testing.T) {
	for _, mode := range []QueueMode{GlobalQueue, PerSenderQueue} {
		tr := NewLocal[msg](3, mode, nil, nil)
		tr.Send(0, 2, []msg{{1, 1.5}, {2, 2.5}})
		tr.Send(1, 2, []msg{{3, 3.5}})
		tr.Send(0, 1, []msg{{9, 9}})
		got := map[uint32]float64{}
		for _, b := range tr.Drain(2) {
			for _, m := range b {
				got[m.V] = m.X
			}
		}
		if len(got) != 3 || got[1] != 1.5 || got[3] != 3.5 {
			t.Fatalf("%v: drained %v", mode, got)
		}
		if len(tr.Drain(2)) != 0 {
			t.Fatalf("%v: drain must clear", mode)
		}
		if !tr.Pending(1) {
			t.Fatalf("%v: worker 1 should have pending", mode)
		}
	}
}

func TestLocalEmptyBatchDropped(t *testing.T) {
	tr := NewLocal[msg](2, GlobalQueue, nil, nil)
	tr.Send(0, 1, nil)
	if tr.Stats().Batches() != 0 || tr.Pending(1) {
		t.Fatal("empty batch must be dropped entirely")
	}
}

func TestLocalStatsAndLockAccounting(t *testing.T) {
	g := NewLocal[msg](2, GlobalQueue, nil, nil)
	g.Send(0, 1, []msg{{1, 1}, {2, 2}})
	if s := g.Stats().Snapshot(); s.Messages != 2 || s.Batches != 1 || s.Bytes != 32 || s.LockedEnqueues != 1 {
		t.Fatalf("global stats = %+v", s)
	}
	p := NewLocal[msg](2, PerSenderQueue, func(m msg) int64 { return 12 }, nil)
	p.Send(0, 1, []msg{{1, 1}, {2, 2}, {3, 3}})
	if s := p.Stats().Snapshot(); s.Messages != 3 || s.Bytes != 36 || s.LockedEnqueues != 0 {
		t.Fatalf("per-sender stats = %+v", s)
	}
}

func TestLocalConcurrentSenders(t *testing.T) {
	for _, mode := range []QueueMode{GlobalQueue, PerSenderQueue} {
		tr := NewLocal[msg](8, mode, nil, nil)
		const per = 500
		var wg sync.WaitGroup
		for from := 0; from < 8; from++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					tr.Send(from, 3, []msg{{uint32(from), float64(i)}})
				}
			}(from)
		}
		wg.Wait()
		total := 0
		for _, b := range tr.Drain(3) {
			total += len(b)
		}
		if total != 8*per {
			t.Fatalf("%v: delivered %d, want %d", mode, total, 8*per)
		}
	}
}

// Property: message conservation — everything sent is drained exactly once,
// regardless of interleaving and mode.
func TestLocalConservationProperty(t *testing.T) {
	f := func(seed int64, modeRaw bool, plan []uint8) bool {
		mode := GlobalQueue
		if modeRaw {
			mode = PerSenderQueue
		}
		const n = 4
		tr := NewLocal[msg](n, mode, nil, nil)
		sent := 0
		for i, p := range plan {
			from, to := int(p)%n, int(p/4)%n
			batch := []msg{{uint32(i), float64(i)}}
			tr.Send(from, to, batch)
			sent++
		}
		got := 0
		for to := 0; to < n; to++ {
			for _, b := range tr.Drain(to) {
				got += len(b)
			}
		}
		return got == sent && tr.Stats().Messages() == int64(sent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	tr, err := NewRPC[msg](3, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var wg sync.WaitGroup
	for from := 0; from < 3; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for to := 0; to < 3; to++ {
				tr.Send(from, to, []msg{{uint32(from*10 + to), 1}})
			}
			tr.FinishRound(from)
		}(from)
	}
	wg.Wait()

	for to := 0; to < 3; to++ {
		batches := tr.Drain(to)
		got := map[uint32]bool{}
		for _, b := range batches {
			for _, m := range b {
				got[m.V] = true
			}
		}
		for from := 0; from < 3; from++ {
			if !got[uint32(from*10+to)] {
				t.Fatalf("endpoint %d missing message from %d (got %v)", to, from, got)
			}
		}
	}
}

func TestRPCMultipleRounds(t *testing.T) {
	tr, err := NewRPC[msg](2, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for from := 0; from < 2; from++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				tr.Send(from, 1-from, []msg{{uint32(round), float64(from)}})
				tr.FinishRound(from)
			}(from)
		}
		wg.Wait()
		for to := 0; to < 2; to++ {
			bs := tr.Drain(to)
			if len(bs) != 1 || bs[0][0].V != uint32(round) {
				t.Fatalf("round %d endpoint %d: %v", round, to, bs)
			}
		}
	}
}

func TestMicroAllImplementationsCorrect(t *testing.T) {
	const total, senders = 20000, 5
	results := []MicroResult{
		MicroHama(total, senders),
		MicroPowerGraph(total, senders),
		MicroCyclops(total, senders),
	}
	for _, r := range results {
		if err := VerifyMicro(r); err != nil {
			t.Error(err)
		}
		if r.Total <= 0 {
			t.Errorf("%s: non-positive total", r.Impl)
		}
	}
	if results[2].Parse != 0 {
		t.Error("cyclops path must have no parse phase")
	}
}

func TestMicroOrdering(t *testing.T) {
	// The paper's Table 3 shape: Hama ≫ PowerGraph ≥ Cyclops. Use a large
	// enough run for the gob overhead to dominate noise.
	const total, senders = 200000, 5
	h := MicroHama(total, senders)
	p := MicroPowerGraph(total, senders)
	c := MicroCyclops(total, senders)
	if h.Total < p.Total*2 {
		t.Errorf("hama (%v) should be ≫ powergraph (%v)", h.Total, p.Total)
	}
	if c.Total > p.Total {
		t.Errorf("cyclops (%v) should not exceed powergraph (%v)", c.Total, p.Total)
	}
}

func TestMicroLinkedBatches(t *testing.T) {
	// Every wire batch carries its sender's span tag, so the tag-survival
	// count must equal the batch count exactly: per-sender ceil(range/batch)
	// for the message-passing implementations, one virtual batch per sender
	// for cyclops (replica flushes carry no frames to tag).
	for _, tc := range []struct{ total, senders int }{{20000, 5}, {20000, 2}, {100, 3}} {
		var wantBatches int64
		for s := 0; s < tc.senders; s++ {
			lo, hi := microRange(tc.total, tc.senders, s)
			wantBatches += int64((hi - lo + microBatch - 1) / microBatch)
		}
		if got := MicroHama(tc.total, tc.senders).LinkedBatches; got != wantBatches {
			t.Errorf("hama %d/%d: %d linked batches, want %d", tc.total, tc.senders, got, wantBatches)
		}
		if got := MicroPowerGraph(tc.total, tc.senders).LinkedBatches; got != wantBatches {
			t.Errorf("powergraph %d/%d: %d linked batches, want %d", tc.total, tc.senders, got, wantBatches)
		}
		if got := MicroCyclops(tc.total, tc.senders).LinkedBatches; got != int64(tc.senders) {
			t.Errorf("cyclops %d/%d: %d linked batches, want %d", tc.total, tc.senders, got, tc.senders)
		}
	}
}

func TestRPCErrNilOnHealthyRun(t *testing.T) {
	tr, err := NewRPC[msg](2, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Send(0, 1, []msg{{1, 1}})
	tr.FinishRound(0)
	tr.FinishRound(1)
	tr.Drain(0)
	tr.Drain(1)
	if tr.Err() != nil {
		t.Fatalf("unexpected transport error: %v", tr.Err())
	}
}

func TestNewFactory(t *testing.T) {
	l, err := New[msg](InProcess, 2, GlobalQueue, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.(*Local[msg]); !ok {
		t.Fatal("InProcess must build a Local transport")
	}
	r, err := New[msg](TCPLoopback, 2, GlobalQueue, nil, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.(*RPC[msg]); !ok {
		t.Fatal("TCPLoopback must build an RPC transport")
	}
	if _, err := New[msg](TCPLoopback, 2, GlobalQueue, nil, nil); !errors.Is(err, ErrNoCodec) {
		t.Fatalf("TCPLoopback without a codec: err = %v, want ErrNoCodec", err)
	}
	if _, err := New[msg](Network(99), 2, GlobalQueue, nil, nil); err == nil {
		t.Fatal("unknown network must error")
	}
	if InProcess.String() == "" || TCPLoopback.String() == "" || Network(99).String() == "" {
		t.Fatal("Network.String must render")
	}
}
