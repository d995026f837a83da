package generate

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/parallel"
)

// moveLogBytes runs a depth-3 rewiring with move recording and returns
// the accepted-move log serialized to bytes — the §3 determinism
// artifact: it must not depend on the worker count.
func moveLogBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	g := connectedRandom(newRng(5), 48, 60)
	r, err := NewRewirer(g, 3, newRng(seed))
	if err != nil {
		t.Fatal(err)
	}
	r.RecordMoves = true
	if _, err := r.Run(120, 40000, 0); err != nil {
		t.Fatal(err)
	}
	if r.Stats.Accepted == 0 {
		t.Fatal("no moves accepted; determinism check is vacuous")
	}
	var buf bytes.Buffer
	for _, m := range r.AcceptedMoves() {
		for _, v := range [5]int{m.U, m.V, m.X, m.Y, m.Depth} {
			if err := binary.Write(&buf, binary.LittleEndian, int64(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestRewireMoveStreamDeterministic mirrors internal/load's
// TestGenerateDeterministic: the batched proposal loop must
// produce a byte-identical accepted-move log at every worker count, and
// a different log for a different seed.
func TestRewireMoveStreamDeterministic(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	serial := moveLogBytes(t, 42)
	repeat := moveLogBytes(t, 42)
	if !bytes.Equal(serial, repeat) {
		t.Fatal("two serial runs differ")
	}
	for _, workers := range []int{2, 4, 8} {
		parallel.SetWorkers(workers)
		if got := moveLogBytes(t, 42); !bytes.Equal(serial, got) {
			t.Fatalf("accepted-move log differs at %d workers", workers)
		}
	}
	parallel.SetWorkers(0)
	if other := moveLogBytes(t, 43); bytes.Equal(serial, other) {
		t.Fatal("seeds 42 and 43 produced identical move logs")
	}
}

// TestRewireStatsDeterministic pins the full stats — including the
// rejection breakdown — across worker counts: the batch pipeline
// evaluates the same candidates in the same order regardless of
// parallelism, so even rejection reasons must agree.
func TestRewireStatsDeterministic(t *testing.T) {
	defer parallel.SetWorkers(0)
	run := func() RewireStats {
		g := connectedRandom(newRng(9), 40, 50)
		r, err := NewRewirer(g, 3, newRng(77))
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Run(80, 20000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	parallel.SetWorkers(1)
	want := run()
	for _, workers := range []int{2, 8} {
		parallel.SetWorkers(workers)
		if got := run(); got != want {
			t.Fatalf("stats differ at %d workers:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
