package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// This file implements the collaborative CPU-GPU extension of §7 ("prior
// works have proposed ... collaborative CPU-GPU computation to meet the
// needs of large graph computation ... EMOGI can be extended to support
// both"): the host CPU traverses a share of the vertex space directly from
// its own memory — no PCIe crossing at all — while the GPU covers the rest
// with zero-copy reads, and the two label replicas are min-reduced between
// levels.

// HybridConfig sets the CPU side's capabilities.
type HybridConfig struct {
	// CPUShare is the fraction of arcs assigned to the CPU partition
	// (0 disables the CPU side; 1 disables the GPU side).
	CPUShare float64
	// CPUScanBytesPerSec is the CPU's effective edge-scan throughput:
	// multi-threaded pointer-chasing over DDR4 lands far below streaming
	// bandwidth; ~3 GB/s is typical for a modern two-socket host.
	CPUScanBytesPerSec float64
	// CPUIterOverhead is the fixed per-level cost of the CPU worker
	// (thread wakeup, frontier scan).
	CPUIterOverhead time.Duration
}

// DefaultHybridConfig returns the calibrated host model with the given
// CPU share.
func DefaultHybridConfig(share float64) HybridConfig {
	return HybridConfig{
		CPUShare:           share,
		CPUScanBytesPerSec: 3e9,
		CPUIterOverhead:    5 * time.Microsecond,
	}
}

// HybridSystem pairs one simulated GPU with the host CPU over a shared
// graph.
type HybridSystem struct {
	dev   *gpu.Device
	dg    *DeviceGraph
	graph *graph.CSR
	cfg   HybridConfig
	split int // first GPU-owned vertex; CPU owns [0, split)
}

// NewHybridSystem uploads g and computes the arc-balanced split point.
func NewHybridSystem(dev *gpu.Device, g *graph.CSR, edgeBytes int, cfg HybridConfig) (*HybridSystem, error) {
	if cfg.CPUShare < 0 || cfg.CPUShare > 1 {
		return nil, fmt.Errorf("core: CPU share %v outside [0, 1]", cfg.CPUShare)
	}
	if cfg.CPUScanBytesPerSec <= 0 {
		return nil, fmt.Errorf("core: CPU scan rate must be positive")
	}
	dg, err := Upload(dev, g, ZeroCopy, edgeBytes)
	if err != nil {
		return nil, err
	}
	target := int64(float64(g.NumEdges()) * cfg.CPUShare)
	split := 0
	var acc int64
	for split < g.NumVertices() && acc < target {
		acc += g.Degree(split)
		split++
	}
	return &HybridSystem{dev: dev, dg: dg, graph: g, cfg: cfg, split: split}, nil
}

// Split returns the first GPU-owned vertex: the CPU owns [0, Split).
func (h *HybridSystem) Split() int { return h.split }

// Free releases the graph buffers.
func (h *HybridSystem) Free() { h.dg.Free(h.dev) }

// BFS runs level-synchronous collaborative BFS: per level the CPU relaxes
// its partition's active lists from host memory while the GPU relaxes its
// own with merged+aligned zero-copy reads; the level costs the slower of
// the two plus a label-replica reduction. The round loop is the frontier
// engine's hybrid topology (engine.go) driving the standard BFS program.
func (h *HybridSystem) BFS(ctx context.Context, src int) (*Result, error) {
	return runHybrid(ctx, h, bfsProgram(), src)
}
