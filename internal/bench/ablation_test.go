package bench

import (
	"strconv"
	"strings"
	"testing"
)

// parseMS pulls a float cell back out of a rendered value.
func parseMS(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("bad float cell %q: %v", cell, err)
	}
	return v
}

func TestAblationUVMBlock(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	tb, err := AblationUVMBlock(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	// Amplification must be non-decreasing in block size on a scattered
	// workload.
	prev := 0.0
	for _, row := range tb.Rows {
		amp := parseMS(t, row[2])
		if amp < prev-0.05 {
			t.Errorf("amplification decreased at block %s: %v -> %v", row[0], prev, amp)
		}
		prev = amp
	}
}

func TestAblationWorkerSize(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	tb, err := AblationWorkerSize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	// The 32-lane worker must be fastest (or tied): §4.3.1's claim.
	t32 := parseMS(t, tb.Rows[3][3])
	for _, row := range tb.Rows[:3] {
		if parseMS(t, row[3]) < t32-1e-9 {
			t.Errorf("worker %s beat the full warp: %s ms vs %.3f ms",
				row[0], row[3], t32)
		}
	}
}

func TestAblationCompression(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	tb, err := AblationCompression(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if r := parseMS(t, row[1]); r < 1.0 {
			t.Errorf("%s: compression ratio %v below 1", row[0], r)
		}
	}
}

func TestAblationThrash(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	tb, err := AblationThrash(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	// More sensitivity, more refetches, slower naive.
	r0 := parseMS(t, tb.Rows[0][1])
	r3 := parseMS(t, tb.Rows[3][1])
	if r3 <= r0 {
		t.Errorf("refetches should grow with sensitivity: %v -> %v", r0, r3)
	}
	t0 := parseMS(t, tb.Rows[0][2])
	t3 := parseMS(t, tb.Rows[3][2])
	if t3 <= t0 {
		t.Errorf("naive time should grow with sensitivity: %v -> %v", t0, t3)
	}
}

func TestAblationLink(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	tb, err := AblationLink(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	// EMOGI times must fall monotonically as the link widens.
	prev := 1e18
	for _, row := range tb.Rows {
		ms := parseMS(t, row[2])
		if ms > prev {
			t.Errorf("EMOGI time rose on a faster link: %v -> %v", prev, ms)
		}
		prev = ms
	}
}

func TestAblationEdgeCentric(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	tb, err := AblationEdgeCentric(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if parseMS(t, row[3]) <= parseMS(t, row[2]) {
			t.Errorf("%s: edge-centric should move more bytes", row[0])
		}
	}
}

func TestAblationDirectionOpt(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	tb, err := AblationDirectionOpt(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if parseMS(t, row[2]) > parseMS(t, row[1]) {
			t.Errorf("%s: push/pull moved more bytes than push", row[0])
		}
	}
}
