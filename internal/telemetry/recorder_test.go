package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func rec(id string, wallNS int64) RequestRecord {
	return RequestRecord{TraceID: id, WallNS: wallNS}
}

// TestRecorderRingEviction: the ring keeps the newest capacity records,
// Snapshot returns them newest-first, and Total keeps counting evicted
// ones.
func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(3)
	if r.Capacity() != 3 {
		t.Fatalf("Capacity = %d, want 3", r.Capacity())
	}
	for i := 1; i <= 5; i++ {
		r.Record(rec(fmt.Sprintf("r%d", i), int64(i)))
	}
	if len(r.Snapshot()) != 3 {
		t.Errorf("held %d records, want 3", len(r.Snapshot()))
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	got := r.Snapshot()
	want := []string{"r5", "r4", "r3"} // r1, r2 evicted; newest first
	if len(got) != len(want) {
		t.Fatalf("Snapshot returned %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].TraceID != w {
			t.Errorf("Snapshot[%d] = %q, want %q", i, got[i].TraceID, w)
		}
	}
}

// TestRecorderSlowest: Slowest orders by descending wall time, truncates
// to k, and breaks ties newest-first.
func TestRecorderSlowest(t *testing.T) {
	r := NewRecorder(8)
	r.Record(rec("fast", 10))
	r.Record(rec("slow", 500))
	r.Record(rec("tie-old", 100))
	r.Record(rec("tie-new", 100))
	r.Record(rec("mid", 200))

	got := r.Slowest(3)
	if len(got) != 3 {
		t.Fatalf("Slowest(3) returned %d records", len(got))
	}
	want := []string{"slow", "mid", "tie-new"} // tie-new beats tie-old on the tie
	for i, w := range want {
		if got[i].TraceID != w {
			t.Errorf("Slowest[%d] = %q (wall %d), want %q", i, got[i].TraceID, got[i].WallNS, w)
		}
	}
	if all := r.Slowest(0); len(all) != 5 {
		t.Errorf("Slowest(0) returned %d records, want all 5", len(all))
	}
}

// TestRecorderNilInert: every method on a nil recorder is a safe no-op,
// so the serving layer can wire it unconditionally.
func TestRecorderNilInert(t *testing.T) {
	var r *Recorder
	r.Record(rec("x", 1))
	if len(r.Snapshot()) != 0 || r.Total() != 0 || r.Capacity() != 0 {
		t.Error("nil recorder reports non-empty state")
	}
	if r.Snapshot() != nil || r.Slowest(5) != nil {
		t.Error("nil recorder returned records")
	}
}

// TestRecorderConcurrent hammers the recorder from many goroutines; run
// with -race this proves the ring's locking.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(rec(fmt.Sprintf("g%d-%d", g, i), int64(i)))
				if i%10 == 0 {
					r.Snapshot()
					r.Slowest(4)
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 8*200 {
		t.Errorf("Total = %d, want %d", r.Total(), 8*200)
	}
	if len(r.Snapshot()) != 16 {
		t.Errorf("held %d records, want capacity 16", len(r.Snapshot()))
	}
}
