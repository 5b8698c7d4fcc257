package core

import (
	"time"

	"repro/internal/gpu"
)

// Result reports one traversal run: functional output plus the simulated
// performance counters the paper's figures are built from. Every
// application — the paper's three plus any Program registered with the
// frontier engine (see engine.go and registry.go) — produces one.
type Result struct {
	App       string
	Variant   Variant
	Transport Transport
	Source    int

	// Values holds per-vertex output: BFS levels, SSSP distances, SSWP
	// widths, or CC labels (graph.InfDist for unreached vertices of a
	// min-lattice program, the monoid identity in general).
	Values []uint32

	// Iterations is the number of traversal kernel launches (BFS: graph
	// depth from the source, §4.2).
	Iterations int

	// Elapsed is the simulated wall-clock time of the whole run,
	// including per-iteration flag synchronization and result download.
	Elapsed time.Duration

	// Stats is this run's delta of the device counters.
	Stats gpu.KernelStats

	// BatchSize records how many sources shared the engine run that
	// produced this result (see batch.go): zero for single-source runs.
	// Values and Iterations are bit-for-bit what a single-source run
	// returns; Elapsed and Stats describe the shared batched run.
	BatchSize int `json:",omitempty"`

	// Degraded marks a result produced under the service's degradation
	// ladder: after the requested transport policy kept faulting
	// transiently, the run was rerouted onto the static-uvm policy. Set by
	// the serving layer, never by the engine: the values are still exact,
	// only the transport (and therefore the performance counters) differ
	// from what was asked for.
	Degraded bool `json:",omitempty"`

	// Policy names the transport policy that governed the run ("static-zc",
	// "static-uvm", "adaptive"). Empty for runs outside the frontier
	// engine (the Subway baseline); Transport then tells the story.
	Policy string `json:",omitempty"`
}
