package stats

import (
	"math/rand"
	"testing"
)

func TestCDFBasic(t *testing.T) {
	// Degrees 1, 2, 3 with edge weights 10, 20, 70.
	c := NewCDF([]int64{1, 2, 3}, []float64{10, 20, 70})
	cases := []struct {
		x    int64
		want float64
	}{
		{0, 0},
		{1, 0.1},
		{2, 0.3},
		{3, 1.0},
		{100, 1.0},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%d) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFDuplicatesMerged(t *testing.T) {
	c := NewCDF([]int64{5, 5, 5}, []float64{1, 2, 3})
	if got := c.At(5); got != 1.0 {
		t.Errorf("At(5) = %v, want 1", got)
	}
	if got := c.At(4); got != 0.0 {
		t.Errorf("At(4) = %v, want 0", got)
	}
	if got := len(c.xs); got != 1 {
		t.Errorf("support has %d points, want 1", got)
	}

}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil, nil)
	if c.At(10) != 0 {
		t.Errorf("empty CDF should return zeros")
	}
	var nilCDF *CDF
	if nilCDF.At(1) != 0 {
		t.Errorf("nil CDF should return zeros")
	}
}

func TestCDFMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on mismatched lengths")
		}
	}()
	NewCDF([]int64{1}, []float64{1, 2})
}

func TestCDFNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on negative weight")
		}
	}()
	NewCDF([]int64{1}, []float64{-1})
}

func TestCDFSample(t *testing.T) {
	c := NewCDF([]int64{16, 48}, []float64{50, 50})
	got := c.Sample([]int64{0, 16, 32, 48, 96})
	want := []float64{0, 0.5, 0.5, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: the CDF is monotone non-decreasing and bounded by [0, 1].
func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		vals := make([]int64, n)
		ws := make([]float64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(200))
			ws[i] = rng.Float64() * 10
		}
		c := NewCDF(vals, ws)
		prev := -1.0
		for x := int64(-5); x <= 205; x += 3 {
			v := c.At(x)
			if v < prev-1e-12 {
				t.Fatalf("CDF not monotone at x=%d: %v < %v", x, v, prev)
			}
			if v < 0 || v > 1+1e-12 {
				t.Fatalf("CDF out of range at x=%d: %v", x, v)
			}
			prev = v
		}
		if got := c.At(205); got < 1-1e-12 {
			t.Fatalf("CDF should reach 1 above max support, got %v", got)
		}
	}
}
