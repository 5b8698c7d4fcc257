package core

import (
	"fmt"

	"repro/internal/graph"
)

// Validate checks a result's Values against the CPU reference for its app.
func (r *Result) Validate(g *graph.CSR) error {
	switch r.App {
	case "BFS":
		return ValidateBFS(g, r.Source, r.Values)
	case "SSSP":
		return ValidateSSSP(g, r.Source, r.Values)
	case "SSWP":
		return ValidateSSWP(g, r.Source, r.Values)
	case "CC":
		return ValidateCC(g, r.Values)
	default:
		return fmt.Errorf("core: cannot validate unknown app %q", r.App)
	}
}
