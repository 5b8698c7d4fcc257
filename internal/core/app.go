package core

import (
	"fmt"

	"repro/internal/graph"
)

// programs are the engine's Program descriptors. Every Result carries its
// Program's App label, which is how Validate finds the reference check.
var programs = [...]func() *Program{bfsProgram, ssspProgram, sswpProgram, ccProgram}

// Validate checks a result's Values against the CPU reference of the
// Program whose App it reports.
func (r *Result) Validate(g *graph.CSR) error {
	for _, p := range programs {
		if prog := p(); prog.App == r.App {
			return prog.Validate(g, r.Source, r.Values)
		}
	}
	return fmt.Errorf("core: cannot validate unknown app %q", r.App)
}
