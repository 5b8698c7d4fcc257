package gpu

import (
	"fmt"
	"testing"

	"repro/internal/memsys"
	"repro/internal/pcie"
)

// replayCase is one FuzzUVMReplay input: a random-gather kernel's shape
// and the UVM, trace and worker settings it runs under.
type replayCase struct {
	seed       uint64
	warps      int
	spread     int    // gathered elements: few pages or the whole array
	misalign   uint64 // edge array base offset, so lines can straddle pages
	mode       edgeMode
	capPages   int
	blockPages int
	traceLimit int
}

// run executes the case's kernel with the given worker count and returns
// what it left behind. Every warp's gather indices come from a hash of
// (seed, warp, step), so the access stream is a function of the case
// alone, not of which worker ran which chunk. Between gathers each warp
// reads one element of a zero-copy side array, so trace entries fall
// between a warp's UVM touches.
func (c replayCase) run(workers int) launchRun {
	d := NewDevice(Config{
		Name:    fmt.Sprintf("replay-w%d", workers),
		Workers: workers,
		Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
	d.Monitor().EnableTrace(c.traceLimit)
	n := int64(c.spread)
	edges := allocEdges(d, c.mode, n, c.misalign, c.capPages, c.blockPages)
	side := d.Arena().MustAlloc("side", memsys.SpaceHostPinned, 1<<12)
	vals := d.Arena().MustAlloc("vals", memsys.SpaceGPU, int64(c.warps)*4, memsys.WithElem(4))
	for i := int64(0); i < n; i++ {
		edges.PutU64(i, uint64(i)*7)
	}
	ks := d.Launch("replay", c.warps, func(w *Warp) {
		h := splitmix(c.seed ^ uint64(w.ID())*0x9e3779b97f4a7c15)
		steps := 1 + int(h%4)
		var sum uint32
		for s := 0; s < steps; s++ {
			h = splitmix(h)
			base := int64(h % uint64(n))
			group := int64(1) << (h >> 32 % 6) // 1..32 contiguous lanes
			var idx [WarpSize]int64
			for l := 0; l < WarpSize; l++ {
				g := int64(l) / group
				idx[l] = (base + g*int64(splitmix(h+uint64(g))%64) + int64(l)%group) % n
			}
			got := w.GatherU64(edges, &idx, Mask(h>>8)|1)
			sum += uint32(got[0]) + uint32(w.ScalarU64(side, int64(h>>40%512)))
		}
		w.StoreScalarU32(vals, int64(w.ID()), sum)
	})
	return collect(d, ks, vals)
}

// splitmix is the SplitMix64 finalizer, a cheap well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// FuzzUVMReplay checks the UVM touch replay for arbitrary gather patterns,
// page-cache capacities (including the bounce case, 0 pages, and an
// unlimited cache), prefetch block sizes, base misalignments, worker counts
// and trace bounds, on a UVM edge array and on a routed one: a parallel
// launch must leave the same launch stats, UVM manager stats and
// residency, monitor counters, trace and dropped count as the serial one.
func FuzzUVMReplay(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint32(1<<15), uint8(0), false, uint8(8), uint8(32), uint32(5000), uint8(2))
	f.Add(uint64(2), uint16(64), uint32(600), uint8(3), false, uint8(1), uint8(1), uint32(4000), uint8(8))
	f.Add(uint64(3), uint16(1000), uint32(1<<17), uint8(5), true, uint8(40), uint8(16), uint32(300), uint8(5))
	f.Add(uint64(4), uint16(17), uint32(1<<12), uint8(12), false, uint8(0), uint8(4), uint32(1<<15), uint8(3))
	f.Add(uint64(5), uint16(400), uint32(1<<14), uint8(0), true, uint8(1), uint8(2), uint32(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, warps uint16, spread uint32, misalign uint8, routed bool,
		capPages, blockPages uint8, traceLimit uint32, workers uint8) {
		c := replayCase{
			seed:       seed,
			warps:      1 + int(warps%1500),
			spread:     1 + int(spread%(1<<18)),
			misalign:   8 * uint64(misalign%16),
			mode:       edgesUVM,
			capPages:   int(capPages) - 1, // -1 is an unlimited cache
			blockPages: 1 + int(blockPages%64),
			traceLimit: int(traceLimit % (1 << 16)),
		}
		if routed {
			c.mode = edgesRouted
		}
		nWorkers := 2 + int(workers%7)
		if d := c.run(1).diff(c.run(nWorkers)); d != "" {
			t.Fatalf("%+v workers=%d: %s", c, nWorkers, d)
		}
	})
}
