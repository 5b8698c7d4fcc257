package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	var h Histogram
	if h.Total() != 0 || h.Sum() != 0 {
		t.Fatalf("zero-value histogram not empty: total=%d sum=%d", h.Total(), h.Sum())
	}
	h.Add(32)
	h.Add(32)
	h.Add(128)
	if got := h.Count(32); got != 2 {
		t.Errorf("Count(32) = %d, want 2", got)
	}
	if got := h.Count(128); got != 1 {
		t.Errorf("Count(128) = %d, want 1", got)
	}
	if got := h.Count(64); got != 0 {
		t.Errorf("Count(64) = %d, want 0", got)
	}
	if got := h.Total(); got != 3 {
		t.Errorf("Total = %d, want 3", got)
	}
	if got := h.Sum(); got != 192 {
		t.Errorf("Sum = %d, want 192", got)
	}

	if got := h.Fraction(32); got != 2.0/3.0 {
		t.Errorf("Fraction(32) = %v, want 2/3", got)
	}
}

func TestHistogramAddNZero(t *testing.T) {
	var h Histogram
	h.AddN(32, 0)
	if h.Total() != 0 {
		t.Errorf("AddN(v, 0) should be a no-op, total = %d", h.Total())
	}
	if len(h.Keys()) != 0 {
		t.Errorf("AddN(v, 0) should not create keys: %v", h.Keys())
	}
}

func TestHistogramKeysSorted(t *testing.T) {
	var h Histogram
	for _, v := range []int64{128, 32, 96, 64, 32} {
		h.Add(v)
	}
	keys := h.Keys()
	want := []int64{32, 64, 96, 128}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.AddN(32, 5)
	a.AddN(64, 2)
	b.AddN(32, 3)
	b.AddN(128, 7)
	total := a.Total() + b.Total()
	sum := a.Sum() + b.Sum()
	a.Merge(&b)
	if a.Total() != total {
		t.Errorf("merged Total = %d, want %d", a.Total(), total)
	}
	if a.Sum() != sum {
		t.Errorf("merged Sum = %d, want %d", a.Sum(), sum)
	}
	if a.Count(32) != 8 || a.Count(64) != 2 || a.Count(128) != 7 {
		t.Errorf("merged counts wrong: %s", a.String())
	}
	a.Merge(nil) // must not panic
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.AddN(32, 10)
	h.Reset()
	if h.Total() != 0 || h.Sum() != 0 || len(h.Keys()) != 0 {
		t.Errorf("Reset did not clear histogram")
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.AddN(128, 2)
	h.AddN(32, 1)
	if got, want := h.String(), "32:1 128:2"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// Property: Total always equals the sum of per-key counts, and Sum equals
// the weighted sum of keys, no matter the insertion sequence.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []int16, reps []uint8) bool {
		var h Histogram
		var wantTotal uint64
		var wantSum int64
		for i, v := range vals {
			n := uint64(1)
			if i < len(reps) {
				n = uint64(reps[i])
			}
			h.AddN(int64(v), n)
			wantTotal += n
			wantSum += int64(v) * int64(n)
		}
		var keyTotal uint64
		for _, k := range h.Keys() {
			keyTotal += h.Count(k)
		}
		return h.Total() == wantTotal && h.Sum() == wantSum && keyTotal == wantTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merging two histograms is observation-preserving and commutative
// in the aggregate counts.
func TestHistogramMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var a, b, ab, ba Histogram
		for i := 0; i < 50; i++ {
			v := int64(rng.Intn(5)) * 32
			if rng.Intn(2) == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		ab.Merge(&a)
		ab.Merge(&b)
		ba.Merge(&b)
		ba.Merge(&a)
		if ab.String() != ba.String() {
			t.Fatalf("merge not commutative: %q vs %q", ab.String(), ba.String())
		}
		if ab.Total() != a.Total()+b.Total() {
			t.Fatalf("merge lost observations")
		}
	}
}
