package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/gpu"
)

// This file is the algorithm registry: every traversal entry point —
// the paper's applications and the specialty configurations — registered
// under a stable name so callers (RunAlgo, the public emogi API, the
// emogi and emogi-bench commands, the traversal service) dispatch by name
// instead of hard-coded switches. Registering an Algorithm is the second
// half of adding an app to the frontier engine (the first is its Program
// descriptor; see sswp.go for the worked example).

// Algorithm is one registered traversal entry point.
type Algorithm struct {
	// Name is the registry key (lower-case, stable; the -algo flag value).
	Name string
	// Description is the one-line -algo listing text.
	Description string
	// NeedsWeights marks algorithms that require a weighted graph.
	NeedsWeights bool
	// NeedsUndirected marks algorithms that require an undirected graph.
	NeedsUndirected bool
	// NoSource marks source-free algorithms (src is ignored).
	NoSource bool
	// FixedVariant marks algorithms that ignore the requested kernel
	// variant (specialty kernels with their own access discipline).
	FixedVariant bool
	// Run executes the algorithm on a loaded device graph, stopping at
	// the next round boundary with a *CanceledError when ctx is done.
	// Algorithms with their own edge layout (compressed, edge-centric)
	// build it from dg.Graph internally and release it before returning.
	Run func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, variant Variant) (*Result, error)
	// Batch, when non-nil, advances up to K sources in one batched engine
	// run sharing each edge scan across the lanes (see batch.go). Nil
	// algorithms batch through RunBatchAlgo's sequential fallback.
	Batch func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, specs []BatchSpec, variant Variant) (*BatchOutcome, error)
}

// registry holds the built-in algorithms. It is populated once at init
// and read-only afterwards, so lookups are safe for concurrent use.
var registry = map[string]*Algorithm{}

// RegisterAlgorithm adds an algorithm to the registry. It panics on a
// duplicate or empty name (registration is a program-startup act, like
// flag declaration).
func RegisterAlgorithm(a *Algorithm) {
	if a == nil || a.Name == "" {
		panic("core: RegisterAlgorithm with empty name")
	}
	name := strings.ToLower(a.Name)
	if _, dup := registry[name]; dup {
		panic("core: duplicate algorithm " + name)
	}
	registry[name] = a
}

// LookupAlgorithm returns the named algorithm, or nil if unknown. Names
// are case-insensitive.
func LookupAlgorithm(name string) *Algorithm {
	return registry[strings.ToLower(name)]
}

// Algorithms returns all registered algorithms sorted by name.
func Algorithms() []*Algorithm {
	out := make([]*Algorithm, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AlgorithmNames returns the sorted registry keys.
func AlgorithmNames() []string {
	algos := Algorithms()
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}

// UnknownAlgorithmError is returned for a name not in the registry. Its
// message lists every valid name so the caller never needs a second
// round-trip to discover them.
type UnknownAlgorithmError struct {
	Name string
}

func (e *UnknownAlgorithmError) Error() string {
	return fmt.Sprintf("core: unknown algorithm %q (valid algorithms: %s)",
		e.Name, strings.Join(AlgorithmNames(), ", "))
}

// RunAlgo dispatches a traversal by registry name with cooperative
// cancellation at round boundaries. An unknown name returns an
// *UnknownAlgorithmError listing the valid names.
func RunAlgo(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, name string, src int, variant Variant) (*Result, error) {
	a := LookupAlgorithm(name)
	if a == nil {
		return nil, &UnknownAlgorithmError{Name: name}
	}
	return a.Run(ctx, dev, dg, src, variant)
}

func init() {
	RegisterAlgorithm(&Algorithm{
		Name:        "bfs",
		Description: "breadth-first search (match-by-level frontier)",
		Run:         BFS,
		Batch:       BFSBatch,
	})
	RegisterAlgorithm(&Algorithm{
		Name:         "sssp",
		Description:  "single-source shortest path (atomic-min + add)",
		NeedsWeights: true,
		Run:          SSSP,
		Batch:        SSSPBatch,
	})
	RegisterAlgorithm(&Algorithm{
		Name:            "cc",
		Description:     "connected components (min-label propagation)",
		NeedsUndirected: true,
		NoSource:        true,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, _ int, variant Variant) (*Result, error) {
			return CC(ctx, dev, dg, variant)
		},
	})
	RegisterAlgorithm(&Algorithm{
		Name:         "sswp",
		Description:  "single-source widest path (atomic-max + min)",
		NeedsWeights: true,
		Run:          SSWP,
		Batch:        SSWPBatch,
	})
	for _, lanes := range []int{4, 8, 16} {
		lanes := lanes
		RegisterAlgorithm(&Algorithm{
			Name:         fmt.Sprintf("bfs-worker%d", lanes),
			Description:  fmt.Sprintf("BFS with %d-lane sub-warp workers (§4.3.1 study)", lanes),
			FixedVariant: true,
			Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
				return BFSWithWorker(ctx, dev, dg, src, lanes, true)
			},
		})
	}
	RegisterAlgorithm(&Algorithm{
		Name:            "bfs-pushpull",
		Description:     "direction-optimized BFS (Beamer push/pull)",
		NeedsUndirected: true,
		FixedVariant:    true,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
			return BFSDirectionOptimized(ctx, dev, dg, src, DefaultPushPullConfig())
		},
	})
	RegisterAlgorithm(&Algorithm{
		Name:         "bfs-compressed",
		Description:  "BFS over the delta-compressed edge stream (§6)",
		FixedVariant: true,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
			cdg, err := UploadCompressed(dev, dg.Graph)
			if err != nil {
				return nil, err
			}
			defer cdg.Free(dev)
			return BFSCompressed(ctx, dev, cdg, src)
		},
	})
	RegisterAlgorithm(&Algorithm{
		Name:         "bfs-edgecentric",
		Description:  "edge-centric BFS over a COO edge stream (§2.1 contrast)",
		FixedVariant: true,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
			ec, err := UploadEdgeCentric(dev, dg.Graph)
			if err != nil {
				return nil, err
			}
			defer ec.Free(dev)
			return BFSEdgeCentric(ctx, dev, ec, src)
		},
	})
}
