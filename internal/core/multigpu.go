package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// This file implements the multi-GPU extension the paper defers to future
// work (§7: "EMOGI can be extended to support both multi-GPU and hybrid
// CPU-GPU computing"). N simulated GPUs hang off the host on independent
// PCIe links; vertices are partitioned by balanced edge count; every GPU
// keeps a full replica of the value array and traverses only its own
// partition's neighbor lists with zero-copy reads. After each iteration
// the replicas are reduced through the host under the program's monoid and
// the vertices whose merged value changed form the next frontier — the
// frontier engine's delta-driven multiRun topology (engine.go), which
// serves any registered Program:
//
//	BFS:  push value+1, start from the source          (unit-weight SSSP)
//	SSSP: push value+edge weight, start from the source
//	CC:   push the value itself, start from everyone
//
// The level-synchronous reduce is the simple design a first multi-GPU
// EMOGI would use; its cost is what makes the scaling sub-linear in the
// multi-GPU ablation.

// MultiSystem is a set of simulated GPUs sharing one host-resident graph.
type MultiSystem struct {
	devs   []*gpu.Device
	graph  *graph.CSR
	dgs    []*DeviceGraph
	bounds []int // len(devs)+1 partition boundaries in vertex IDs
}

// NewMultiSystem uploads g once per device (simulating a single shared
// pinned allocation) and computes an edge-balanced contiguous partition.
func NewMultiSystem(devs []*gpu.Device, g *graph.CSR, edgeBytes int) (*MultiSystem, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("core: MultiSystem needs at least one device")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ms := &MultiSystem{devs: devs, graph: g}
	for _, dev := range devs {
		dg, err := Upload(dev, g, ZeroCopy, edgeBytes)
		if err != nil {
			return nil, fmt.Errorf("core: multi-GPU upload: %w", err)
		}
		ms.dgs = append(ms.dgs, dg)
	}
	// Balanced partition: split vertex IDs so each device owns roughly
	// |E|/N arcs.
	n := g.NumVertices()
	ms.bounds = make([]int, len(devs)+1)
	target := g.NumEdges() / int64(len(devs))
	v := 0
	for i := 1; i < len(devs); i++ {
		var acc int64
		for v < n && acc < target {
			acc += g.Degree(v)
			v++
		}
		ms.bounds[i] = v
	}
	ms.bounds[len(devs)] = n
	return ms, nil
}

// Partition returns device i's vertex range [lo, hi).
func (ms *MultiSystem) Partition(i int) (lo, hi int) {
	return ms.bounds[i], ms.bounds[i+1]
}

// BFS runs multi-GPU breadth-first search from src.
func (ms *MultiSystem) BFS(ctx context.Context, src int) (*Result, error) {
	return runMulti(ctx, ms, bfsProgram(), src)
}

// SSSP runs multi-GPU single-source shortest path from src.
func (ms *MultiSystem) SSSP(ctx context.Context, src int) (*Result, error) {
	if ms.graph.Weights == nil {
		return nil, fmt.Errorf("core: SSSP requires a weighted graph")
	}
	return runMulti(ctx, ms, ssspProgram(), src)
}

// CC runs multi-GPU connected components (undirected graphs only).
func (ms *MultiSystem) CC(ctx context.Context) (*Result, error) {
	if ms.graph.Directed {
		return nil, fmt.Errorf("core: CC requires an undirected graph")
	}
	return runMulti(ctx, ms, ccProgram(), 0)
}

// Free releases all per-device graph buffers.
func (ms *MultiSystem) Free() {
	for i, dev := range ms.devs {
		ms.dgs[i].Free(dev)
	}
}
