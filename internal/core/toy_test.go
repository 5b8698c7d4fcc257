package core

import (
	"math"
	"testing"
)

// TestToyFigure3Patterns verifies the request mixes of Figure 3: strided
// is all 32B, merged+aligned is all 128B, misaligned is a 1:1 mix of 32B
// and 96B.
func TestToyFigure3Patterns(t *testing.T) {
	const elems = 1 << 16
	cases := []struct {
		pattern ToyPattern
		check   func(t *testing.T, r *ToyResult)
	}{
		{ToyStrided, func(t *testing.T, r *ToyResult) {
			if f := fracOf(r, 32); f < 0.999 {
				t.Errorf("strided: 32B fraction = %.3f, want ~1", f)
			}
		}},
		{ToyMergedAligned, func(t *testing.T, r *ToyResult) {
			if f := fracOf(r, 128); f < 0.999 {
				t.Errorf("aligned: 128B fraction = %.3f, want ~1", f)
			}
		}},
		{ToyMergedMisaligned, func(t *testing.T, r *ToyResult) {
			f32, f96 := fracOf(r, 32), fracOf(r, 96)
			if math.Abs(f32-0.5) > 0.02 || math.Abs(f96-0.5) > 0.02 {
				t.Errorf("misaligned: 32B=%.3f 96B=%.3f, want ~0.5 each", f32, f96)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.pattern.String(), func(t *testing.T) {
			dev := testDevice()
			r, err := ToyTraverse(dev, elems, tc.pattern, ZeroCopy)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, r)
		})
	}
}

func fracOf(r *ToyResult, size int64) float64 {
	if r.Snapshot.Requests == 0 {
		return 0
	}
	return float64(r.Snapshot.BySize[size]) / float64(r.Snapshot.Requests)
}

// TestToyFigure4Bandwidths pins the toy example to the paper's measured
// Figure 4 numbers: strided 4.74 GB/s PCIe / 9.40 DRAM; merged+aligned
// 12.23 / 12.36; misaligned 9.61 / 14.26; UVM ~9.1-9.3.
func TestToyFigure4Bandwidths(t *testing.T) {
	const elems = 1 << 20
	cases := []struct {
		name      string
		pattern   ToyPattern
		transport Transport
		wantPCIe  float64
		wantDRAM  float64
		tol       float64
	}{
		{"strided", ToyStrided, ZeroCopy, 4.74, 9.40, 0.4},
		{"merged+aligned", ToyMergedAligned, ZeroCopy, 12.3, 12.3, 0.5},
		{"misaligned", ToyMergedMisaligned, ZeroCopy, 9.6, 14.26, 0.7},
		{"uvm", ToyMergedAligned, UVM, 9.15, 9.15, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := testDevice()
			r, err := ToyTraverse(dev, elems, tc.pattern, tc.transport)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.PCIeBandwidth / 1e9; math.Abs(got-tc.wantPCIe) > tc.tol {
				t.Errorf("PCIe bandwidth = %.2f GB/s, want %.2f±%.2f (paper Fig 4)",
					got, tc.wantPCIe, tc.tol)
			}
			if got := r.DRAMBandwidth / 1e9; math.Abs(got-tc.wantDRAM) > tc.tol {
				t.Errorf("DRAM bandwidth = %.2f GB/s, want %.2f±%.2f (paper Fig 4)",
					got, tc.wantDRAM, tc.tol)
			}
		})
	}
}

// TestToyDataCopied: the toy kernel is functionally a copy; verify output
// equals input (sampling).
func TestToyDataCopied(t *testing.T) {
	dev := testDevice()
	_, err := ToyTraverse(dev, 1<<14, ToyMergedAligned, ZeroCopy)
	if err != nil {
		t.Fatal(err)
	}
	// Buffers are freed inside ToyTraverse; re-run with direct inspection
	// via a second traversal capturing the device arena before free is not
	// possible, so instead verify the invariant indirectly: payload bytes
	// equal the array size (every element moved exactly once).
	dev2 := testDevice()
	r, err := ToyTraverse(dev2, 1<<14, ToyMergedAligned, ZeroCopy)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.PCIePayloadBytes != 1<<14*4 {
		t.Errorf("payload = %d, want exactly the array (%d)",
			r.Stats.PCIePayloadBytes, 1<<14*4)
	}
}

func TestToyRoundsUpElems(t *testing.T) {
	dev := testDevice()
	r, err := ToyTraverse(dev, 100, ToyStrided, ZeroCopy)
	if err != nil {
		t.Fatal(err)
	}
	// 100 elements round up to one tile, which the strided kernel reads
	// exactly once.
	if tile := uint64(32 * toyChunkElems * 4); r.Stats.PCIePayloadBytes != tile {
		t.Errorf("payload = %d, want one whole tile (%d)", r.Stats.PCIePayloadBytes, tile)
	}
}

func TestToyUnknownPattern(t *testing.T) {
	dev := testDevice()
	if _, err := ToyTraverse(dev, 1<<12, ToyPattern(42), ZeroCopy); err == nil {
		t.Errorf("unknown pattern accepted")
	}
}

// TestToyMisalignedSlowerThanAligned: the §3.3 ordering in time, not just
// request mix.
func TestToyBandwidthOrdering(t *testing.T) {
	dev := testDevice()
	const elems = 1 << 18
	strided, err := ToyTraverse(dev, elems, ToyStrided, ZeroCopy)
	if err != nil {
		t.Fatal(err)
	}
	mis, err := ToyTraverse(dev, elems, ToyMergedMisaligned, ZeroCopy)
	if err != nil {
		t.Fatal(err)
	}
	ali, err := ToyTraverse(dev, elems, ToyMergedAligned, ZeroCopy)
	if err != nil {
		t.Fatal(err)
	}
	if !(strided.PCIeBandwidth < mis.PCIeBandwidth && mis.PCIeBandwidth < ali.PCIeBandwidth) {
		t.Errorf("bandwidth ordering violated: strided=%.2f mis=%.2f aligned=%.2f GB/s",
			strided.PCIeBandwidth/1e9, mis.PCIeBandwidth/1e9, ali.PCIeBandwidth/1e9)
	}
}
