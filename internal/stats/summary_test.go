package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	// Sample variance with n-1 = 7: sum of squared deviations = 32.
	if got, want := s.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.Stddev() != 0 {
		t.Errorf("empty summary should be all zeros")
	}
	s.Add(3.5)
	if s.Variance() != 0 {
		t.Errorf("single-observation variance should be 0")
	}
	if s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single observation min/max wrong")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var all, a, b Summary
		n := 2 + rng.Intn(100)
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()*10 + 50
			all.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		if a.N() != all.N() {
			t.Fatalf("merged N = %d, want %d", a.N(), all.N())
		}
		if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
			t.Fatalf("merged Mean = %v, want %v", a.Mean(), all.Mean())
		}
		if math.Abs(a.Variance()-all.Variance()) > 1e-6 {
			t.Fatalf("merged Variance = %v, want %v", a.Variance(), all.Variance())
		}
		if a.Min() != all.Min() || a.Max() != all.Max() {
			t.Fatalf("merged min/max wrong")
		}
	}
}

func TestSummaryMergeEdgeCases(t *testing.T) {
	var a Summary
	a.Merge(nil) // no-op
	var empty Summary
	a.Merge(&empty) // no-op
	if a.N() != 0 {
		t.Errorf("merging empties should leave summary empty")
	}
	var b Summary
	b.Add(7)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 7 {
		t.Errorf("merge into empty failed: n=%d mean=%v", a.N(), a.Mean())
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("GeoMean(1,1,1) = %v, want 1", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Errorf("GeoMean of non-positive = %v, want 0", got)
	}
	// Non-positive entries are ignored, not zeroing.
	if got := GeoMean([]float64{4, 0}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(4, 0) = %v, want 4", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}
