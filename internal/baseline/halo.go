package baseline

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
)

// HALORun executes one of the paper's applications, by registry name
// ("bfs", "sssp", or "cc"), with the HALO-style configuration [21]:
// the CSR is first reordered with a locality-enhancing permutation (HALO's
// contribution), then traversed through UVM exactly like the optimized UVM
// baseline. Reordering improves the page locality of frontier neighbor
// lists, which is where HALO's advantage over plain UVM comes from.
//
// Results are mapped back to the original vertex numbering, so they are
// directly comparable (and validatable) against every other system.
//
// The reordering itself is offline preprocessing and is not charged to the
// run, matching how HALO's published numbers are reported.
func HALORun(dev *gpu.Device, g *graph.CSR, name string, src int) (*core.Result, error) {
	a, err := paperApp(name)
	if err != nil {
		return nil, err
	}
	perm := graph.LocalityOrder(g)
	rg := graph.Reorder(g, perm)

	dg, err := core.Upload(dev, rg, core.UVM, 8)
	if err != nil {
		return nil, fmt.Errorf("baseline: HALO upload: %w", err)
	}
	defer dg.Free(dev)

	rsrc := src
	if !a.NoSource {
		if src < 0 || src >= g.NumVertices() {
			return nil, fmt.Errorf("baseline: source %d out of range", src)
		}
		rsrc = int(perm[src])
	}
	res, err := a.Run(context.Background(), dev, dg, rsrc, core.Merged)
	if err != nil {
		return nil, err
	}

	// Map the result back to original IDs: position remap for all apps,
	// plus value remap for CC (labels are vertex IDs in the new space).
	n := g.NumVertices()
	order := make([]uint32, n) // order[newID] = oldID
	for old, nw := range perm {
		order[nw] = uint32(old)
	}
	remapped := make([]uint32, n)
	for old := 0; old < n; old++ {
		v := res.Values[perm[old]]
		if a.NoSource && v != graph.InfDist {
			// The min-label in the reordered space is the vertex with the
			// smallest *new* ID in the component; translate to the
			// smallest old ID by re-canonicalizing below.
			v = order[v]
		}
		remapped[old] = v
	}
	if a.NoSource {
		remapped = canonicalizeLabels(remapped)
	}
	res.Values = remapped
	if !a.NoSource {
		res.Source = src
	}
	return res, nil
}

// canonicalizeLabels rewrites component labels so each component is
// labeled by its minimum member ID, making labels comparable with
// graph.RefCC regardless of the intermediate numbering.
func canonicalizeLabels(labels []uint32) []uint32 {
	minOf := make(map[uint32]uint32)
	for v, l := range labels {
		if cur, ok := minOf[l]; !ok || uint32(v) < cur {
			minOf[l] = uint32(v)
		}
	}
	out := make([]uint32, len(labels))
	for v, l := range labels {
		out[v] = minOf[l]
	}
	return out
}

// paperApp resolves a registry name to one of the paper's three
// applications (bfs, sssp, cc), the only ones the baselines implement.
// Among them, CC is the source-free one and SSSP the weighted one. A name
// outside the registry returns an *core.UnknownAlgorithmError.
func paperApp(name string) (*core.Algorithm, error) {
	a := core.LookupAlgorithm(name)
	if a == nil {
		return nil, &core.UnknownAlgorithmError{Name: name}
	}
	switch a.Name {
	case "bfs", "sssp", "cc":
		return a, nil
	}
	return nil, fmt.Errorf("baseline: %q is not a baseline application (want bfs, sssp, or cc)", name)
}
