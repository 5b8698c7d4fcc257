// Package baseline implements the systems the paper compares EMOGI against
// in §5.6 / Table 3: a Subway-style partition-and-transfer engine and a
// HALO-style locality-reordered UVM configuration. (The plain "optimized
// UVM" baseline of §5.1.2(a) is simply core with Transport=UVM and needs
// no extra code.)
package baseline

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
)

// SubwayConfig models the published Subway design [45]: per-iteration
// GPU-accelerated extraction of the active subgraph, bulk transfer of only
// those edges, and an in-GPU-memory kernel.
type SubwayConfig struct {
	// EdgeBytes is fixed at 4: "Subway only supports 4-byte data types"
	// (Table 3 caption).
	EdgeBytes int

	// MaxEdges mirrors the framework's 2^32 edge limit ("it cannot execute
	// on the ML graph as the framework currently supports a maximum of
	// 2^32 edges", §5.6), scaled 1:1000 with the datasets.
	MaxEdges int64

	// GenBytesPerSec is the throughput of subgraph generation: the
	// host+GPU pipeline that compacts active neighbor lists each
	// iteration. Calibrated so the Table 3 speedup band (EMOGI 2.0-4.7x
	// over Subway) is reproduced.
	GenBytesPerSec float64

	// Partition makes oversized active subgraphs process in GPU-sized
	// chunks, as the real Subway does. With Partition disabled, a frontier
	// whose subgraph exceeds free GPU memory fails with ErrSubwayOOM —
	// reproducing the paper's observed GU failure ("unidentified CUDA
	// out-of-memory errors", §5.6).
	Partition bool

	// GenFixed is the fixed per-iteration preprocessing latency.
	GenFixed time.Duration

	// Async overlaps the subgraph transfer with kernel execution
	// (Subway-async, the stronger variant the paper compares against).
	Async bool
}

// DefaultSubwayConfig returns the calibrated Subway-async configuration.
func DefaultSubwayConfig() SubwayConfig {
	return SubwayConfig{
		EdgeBytes:      4,
		MaxEdges:       (1 << 32) / 1000,
		GenBytesPerSec: 6e9,
		GenFixed:       60 * time.Microsecond,
		Async:          true,
		Partition:      true,
	}
}

// ErrSubwayUnsupported is returned when the input graph exceeds Subway's
// edge-count limit (the paper's ML case).
var ErrSubwayUnsupported = errors.New("baseline: graph exceeds Subway's 2^32-edge limit")

// ErrSubwayOOM is returned when an iteration's active subgraph does not
// fit in GPU memory (the paper's GU case: "fails to execute on the GU
// graph due to unidentified CUDA out-of-memory errors").
var ErrSubwayOOM = errors.New("baseline: active subgraph exceeds GPU memory")

// SubwayRun executes one of the paper's applications, by registry name
// ("bfs", "sssp", or "cc"), with the Subway-style engine and returns a
// core.Result comparable with EMOGI's. src is ignored for CC.
func SubwayRun(dev *gpu.Device, g *graph.CSR, name string, src int, cfg SubwayConfig) (*core.Result, error) {
	a, err := paperApp(name)
	if err != nil {
		return nil, err
	}
	app := strings.ToUpper(a.Name)
	if cfg.EdgeBytes == 0 {
		cfg = DefaultSubwayConfig()
	}
	if cfg.EdgeBytes != 4 {
		return nil, fmt.Errorf("baseline: Subway only supports 4-byte edge elements, got %d", cfg.EdgeBytes)
	}
	if cfg.MaxEdges > 0 && g.NumEdges() > cfg.MaxEdges {
		return nil, fmt.Errorf("%w: %d edges > limit %d", ErrSubwayUnsupported, g.NumEdges(), cfg.MaxEdges)
	}
	if a.NeedsUndirected && g.Directed {
		return nil, fmt.Errorf("baseline: %s requires an undirected graph", app)
	}
	if a.NeedsWeights && g.Weights == nil {
		return nil, fmt.Errorf("baseline: %s requires a weighted graph", app)
	}
	n := g.NumVertices()
	if !a.NoSource && (src < 0 || src >= n) {
		return nil, fmt.Errorf("baseline: source %d out of range", src)
	}

	dev.BeginRun(gpu.RunLabels{App: app, Variant: "subway", Transport: "bulk", Graph: g.Name})
	defer dev.EndRun()
	arena := dev.Arena()

	// Persistent device state: the value array lives in GPU memory for the
	// whole run, like Subway's global value array.
	values, err := arena.Alloc("subway.values", memsys.SpaceGPU, int64(n)*4)
	if err != nil {
		return nil, fmt.Errorf("baseline: allocating value array: %w", err)
	}
	defer arena.Free(values)

	// Host-side state mirrors: activeness is computed on device in real
	// Subway; the simulator tracks it in lockstep and charges the
	// generation pipeline below.
	active := make([]bool, n)
	switch {
	case a.NoSource:
		for v := 0; v < n; v++ {
			values.PutU32(int64(v), uint32(v))
			active[v] = true
		}
	default:
		for v := 0; v < n; v++ {
			values.PutU32(int64(v), graph.InfDist)
		}
		values.PutU32(int64(src), 0)
		active[src] = true
	}
	dev.CopyToDevice(int64(n) * 4)

	iterations := 0
	for {
		sub := graph.ExtractSubgraph(g, active)
		if sub.NumActive() == 0 {
			break
		}
		transfer := sub.TransferBytes(cfg.EdgeBytes)

		// Charge subgraph generation: a scan proportional to the bytes
		// compacted plus a fixed pipeline latency.
		genTime := cfg.GenFixed +
			time.Duration(float64(transfer)/cfg.GenBytesPerSec*float64(time.Second))
		dev.HostCompute(genTime)

		// The next frontier accumulates across all chunks of this
		// iteration.
		for i := range active {
			active[i] = false
		}

		// Partition the subgraph into chunks that fit free GPU memory
		// (real Subway's partitioned processing); without Partition an
		// oversized frontier is an OOM, the paper's GU failure mode.
		needW := a.NeedsWeights
		budget := arena.GPUFree()
		lo := 0
		for lo < sub.NumActive() {
			hi := lo
			var bytes int64
			for hi < sub.NumActive() {
				deg := sub.Offsets[hi+1] - sub.Offsets[hi]
				cost := 12 + deg*int64(cfg.EdgeBytes) // id + offset + edges
				if needW {
					cost += deg * 4
				}
				if hi > lo && budget >= 0 && bytes+cost > budget-int64(memsys.PageBytes) {
					break
				}
				bytes += cost
				hi++
			}
			if hi == lo {
				return nil, fmt.Errorf("%w: single neighbor list exceeds free GPU memory", ErrSubwayOOM)
			}
			if !cfg.Partition && hi < sub.NumActive() {
				return nil, fmt.Errorf("%w: %d-byte active subgraph with partitioning disabled",
					ErrSubwayOOM, transfer)
			}
			if err := stageAndRunChunk(dev, cfg, sub, a, lo, hi, values, active); err != nil {
				return nil, err
			}
			lo = hi
		}
		iterations++
	}

	dev.CopyToHost(int64(n) * 4)
	out := make([]uint32, n)
	for v := 0; v < n; v++ {
		out[v] = values.U32(int64(v))
	}
	resSrc := src
	if a.NoSource {
		resSrc = -1
	}
	stats := dev.RunStats()
	return &core.Result{
		App:        app,
		Variant:    core.Merged,
		Transport:  core.ZeroCopy, // not meaningful for Subway; edges move in bulk
		Source:     resSrc,
		Values:     out,
		Iterations: iterations,
		Elapsed:    stats.Elapsed,
		Stats:      stats,
	}, nil
}

// stageAndRunChunk stages active vertices [lo, hi) of the extracted
// subgraph into GPU memory, runs the relaxation kernel on them, models the
// chunk's transfer (overlapped when async), and releases the staging
// buffers.
func stageAndRunChunk(dev *gpu.Device, cfg SubwayConfig, sub *graph.Subgraph, a *core.Algorithm,
	lo, hi int, values *memsys.Buffer, active []bool) error {

	arena := dev.Arena()
	nAct := hi - lo
	base := sub.Offsets[lo]
	nEdges := sub.Offsets[hi] - base

	offBuf, err := arena.Alloc("subway.suboff", memsys.SpaceGPU, int64(nAct+1)*8)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSubwayOOM, err)
	}
	defer arena.Free(offBuf)
	dstBuf, err := arena.Alloc("subway.subdst", memsys.SpaceGPU,
		nEdges*int64(cfg.EdgeBytes), memsys.WithElem(cfg.EdgeBytes))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSubwayOOM, err)
	}
	defer arena.Free(dstBuf)
	var wgtBuf *memsys.Buffer
	if a.NeedsWeights {
		wgtBuf, err = arena.Alloc("subway.subwgt", memsys.SpaceGPU, nEdges*4)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrSubwayOOM, err)
		}
		defer arena.Free(wgtBuf)
	}
	for i := 0; i <= nAct; i++ {
		offBuf.PutU64(int64(i), uint64(sub.Offsets[lo+i]-base))
	}
	for i := int64(0); i < nEdges; i++ {
		d := sub.Dst[base+i]
		if cfg.EdgeBytes == 4 {
			dstBuf.PutU32(i, d)
		} else {
			dstBuf.PutU64(i, uint64(d))
		}
	}
	if wgtBuf != nil {
		for i := int64(0); i < nEdges; i++ {
			wgtBuf.PutU32(i, sub.Weights[base+i])
		}
	}

	// The kernel consumes GPU-resident data; with async Subway the chunk
	// transfer overlaps kernel execution, otherwise they serialize.
	kernelStart := dev.Clock()
	launchSubwayKernel(dev, sub, a, lo, offBuf, dstBuf, wgtBuf, values, active)
	kernelTime := dev.Clock() - kernelStart

	chunkBytes := int64(nAct)*4 + int64(nAct+1)*int64(cfg.EdgeBytes) + nEdges*int64(cfg.EdgeBytes)
	if wgtBuf != nil {
		chunkBytes += nEdges * 4
	}
	var overlap time.Duration
	if cfg.Async {
		overlap = kernelTime
	}
	dev.CopyToDeviceOverlapped(chunkBytes, overlap)
	return nil
}

// launchSubwayKernel relaxes every edge of the staged chunk from GPU
// memory, updating the global value array and marking updated destinations
// active for the next iteration.
func launchSubwayKernel(dev *gpu.Device, sub *graph.Subgraph, a *core.Algorithm, lo int,
	offBuf, dstBuf, wgtBuf, values *memsys.Buffer, active []bool) gpu.KernelStats {

	edgeBytes := dstBuf.Elem
	nAct := int(offBuf.Size()/8) - 1
	// Serial launch: the kernel reads source values from the live relax
	// target and marks the host-side active slice from inside the body,
	// both of which are unsafe under concurrent warp execution.
	return dev.Launch("subway/"+strings.ToUpper(a.Name), nAct, func(w *gpu.Warp) {
		i := int64(w.ID())
		start, end := w.PairU64(offBuf, i)
		if start >= end {
			return
		}
		v := sub.Vertices[lo+int(i)]
		srcVal := w.ScalarU32(values, int64(v))
		if srcVal == graph.InfDist {
			return
		}
		var dst, wgt [gpu.WarpSize]uint32
		for base := int64(start); base < int64(end); base += gpu.WarpSize {
			n := int(min(int64(end)-base, gpu.WarpSize))
			mask := gpu.MaskFirstN(n)
			w.GatherRange(dstBuf, edgeBytes, base, 0, n, &dst)
			if wgtBuf != nil {
				w.GatherRange(wgtBuf, 4, base, 0, n, &wgt)
			}
			var tgtIdx [gpu.WarpSize]int64
			var cand [gpu.WarpSize]uint32
			for l := 0; l < n; l++ {
				tgtIdx[l] = int64(dst[l])
				switch {
				case a.NeedsWeights: // SSSP adds the edge weight
					cand[l] = srcVal + wgt[l]
				case !a.NoSource: // BFS adds one level
					cand[l] = srcVal + 1
				default: // CC pushes the label itself
					cand[l] = srcVal
				}
			}
			won := w.RelaxMinU32(values, &tgtIdx, &cand, mask)
			for m := uint32(won); m != 0; m &= m - 1 {
				active[dst[bits.TrailingZeros32(m)]] = true
			}
		}
	}, gpu.Serial())
}
