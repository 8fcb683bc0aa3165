package transport

// Hardening tests for the RPC transport: idempotent/concurrent Close, typed
// fail-fast errors after Close, the FinishRound once-per-round contract
// surfacing as ErrRoundViolation instead of a hang, and transparent reconnect
// with retry/reconnect accounting. These run in-package so the reconnect test
// can sever a live connection directly.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"cyclops/internal/graph"
)

// drainOrTimeout guards against the exact regression these tests exist for:
// a Drain that blocks forever. It fails the test instead of hanging the run.
func drainOrTimeout(t *testing.T, tr *RPC[int64], to int) [][]int64 {
	t.Helper()
	done := make(chan [][]int64, 1)
	go func() { done <- tr.Drain(to) }()
	select {
	case out := <-done:
		return out
	case <-time.After(10 * time.Second):
		t.Fatalf("Drain(%d) hung", to)
		return nil
	}
}

func TestRPCCloseIdempotentConcurrent(t *testing.T) {
	tr, err := NewRPC[int64](3, graph.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	// Sends, round markers and several Closes all race: Close must win
	// exactly once, never panic, and the losers must fail fast.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := tr.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				tr.Send(i%3, (i+1)%3, []int64{int64(j)})
			}
		}()
	}
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tr.FinishRound(i)
		}()
	}
	close(start)
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	// The closed transport must not block a late Drain.
	drainOrTimeout(t, tr, 0)
}

func TestRPCSendAfterCloseFailsFastTyped(t *testing.T) {
	tr, err := NewRPC[int64](2, graph.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Send(0, 1, []int64{1})
	got := tr.Err()
	if got == nil {
		t.Fatal("Send after Close must record an error")
	}
	var te *Error
	if !errors.As(got, &te) {
		t.Fatalf("error is not a typed *transport.Error: %v", got)
	}
	if te.Op != "send" || !errors.Is(got, ErrClosed) {
		t.Fatalf("want send/ErrClosed, got op=%q err=%v", te.Op, got)
	}
	if IsTransient(got) {
		t.Fatal("ErrClosed must be fatal: recovery cannot revive a closed transport")
	}
	tr.FinishRound(0) // must also fail fast, not write to dead sockets
	if err := tr.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("FinishRound after Close: %v", err)
	}
	drainOrTimeout(t, tr, 1)
}

func TestRPCFinishRoundOveruseIsTypedViolation(t *testing.T) {
	tr, err := NewRPC[int64](2, graph.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Violate the once-per-round contract far past the allowed pipeline lag.
	// The self-deposited marker trips the bound synchronously, so the error
	// is guaranteed visible once the loop exceeds maxRoundLag calls.
	for i := 0; i <= maxRoundLag; i++ {
		tr.FinishRound(0)
	}
	got := tr.Err()
	if got == nil || !errors.Is(got, ErrRoundViolation) {
		t.Fatalf("want ErrRoundViolation, got %v", got)
	}
	if IsTransient(got) {
		t.Fatal("a protocol violation must be fatal, not recoverable")
	}
	// The violation breaks the round protocol permanently; a Drain that
	// would otherwise wait for endpoint 1's marker must return, not hang.
	drainOrTimeout(t, tr, 0)
}

func TestRPCReconnectRedeliversAndCounts(t *testing.T) {
	tr, err := NewRPC[int64](2, graph.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Round 1: healthy traffic over the initial connections.
	tr.Send(0, 1, []int64{1, 2})
	tr.FinishRound(0)
	tr.FinishRound(1)
	if got := countMsgs(drainOrTimeout(t, tr, 1)); got != 2 {
		t.Fatalf("round 1 delivered %d msgs, want 2", got)
	}
	drainOrTimeout(t, tr, 0)

	// Sever 0→1 under the sender's lock, as a mid-run connection failure
	// would. The next Send's encode fails and must transparently re-dial.
	tr.encMu[0].Lock()
	tr.conns[0][1].Close()
	tr.encMu[0].Unlock()

	tr.Send(0, 1, []int64{3, 4, 5})
	tr.FinishRound(0)
	tr.FinishRound(1)
	if got := countMsgs(drainOrTimeout(t, tr, 1)); got != 3 {
		t.Fatalf("post-reconnect round delivered %d msgs, want 3", got)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("a successfully retried send must not record an error: %v", err)
	}
	if tr.Stats().Retries() == 0 {
		t.Fatal("severed connection produced no retry count")
	}
	if tr.Stats().Reconnects() == 0 {
		t.Fatal("severed connection produced no reconnect count")
	}
}

func countMsgs(batches [][]int64) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}
