package emogi

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// Re-exported memory-tier types so user code only imports this package.
type (
	// Tier is one level of the simulated memory hierarchy: a capacity plus
	// the interconnect and device-side cost models accesses to it pay.
	Tier = memsys.Tier
	// TierStack is an ordered hierarchy: HBM, host DRAM, optionally a
	// CXL-class external tier.
	TierStack = memsys.TierStack
	// TierKind identifies a tier's position in the hierarchy.
	TierKind = memsys.TierKind
	// Placement selects which host-side tier(s) a graph's edge list is
	// homed on (see WithPlacement and Request.Placement).
	Placement = core.Placement
)

// Tier kinds.
const (
	TierHBM  = memsys.TierHBM
	TierDRAM = memsys.TierDRAM
	TierCXL  = memsys.TierCXL
)

// Placements.
const (
	PlaceAuto = core.PlaceAuto
	PlaceDRAM = core.PlaceDRAM
	PlaceCXL  = core.PlaceCXL
)

// TwoTier returns the canonical two-tier stack: GPU HBM over host DRAM
// behind one PCIe link, the paper's machine.
func TwoTier(gpuBytes, hostBytes int64, hbm, dram memsys.DRAMModel, link pcie.LinkConfig) TierStack {
	return memsys.TwoTier(gpuBytes, hostBytes, hbm, dram, link)
}

// ThreeTierCXL extends a two-tier base with a CXL-class external tier of
// the given capacity, using the calibrated CXL link and expander models.
func ThreeTierCXL(base TierStack, cxlBytes int64) TierStack {
	return memsys.ThreeTierCXL(base, cxlBytes)
}

// ParsePlacement maps a wire name ("auto", "dram", "cxl") to a Placement.
func ParsePlacement(s string) (Placement, error) { return core.ParsePlacement(s) }

// ParseVariant maps a variant name ("naive", "merged", "merged+aligned";
// "aligned" and "mergedaligned" are aliases) to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(s) {
	case "naive":
		return Naive, nil
	case "merged":
		return Merged, nil
	case "merged+aligned", "aligned", "mergedaligned":
		return MergedAligned, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want naive, merged, or merged+aligned)", s)
}

// ParsePlatform maps a platform name ("v100", "titanxp", "a100-pcie3",
// "a100-pcie4"; "a100" is an alias of the last) to its SystemConfig at
// the given dataset scale.
func ParsePlatform(s string, scale float64) (SystemConfig, error) {
	switch strings.ToLower(s) {
	case "v100":
		return V100PCIe3(scale), nil
	case "titanxp":
		return TitanXpPCIe3(scale), nil
	case "a100-pcie3":
		return A100PCIe3(scale), nil
	case "a100-pcie4", "a100":
		return A100PCIe4(scale), nil
	}
	return SystemConfig{}, fmt.Errorf("unknown platform %q", s)
}

// ParsePaging maps a UVM paging model name to the GPU.GPUDrivenPaging
// selector: "cpu" (or empty) is the serialized CPU fault handler, "gpu"
// GPU-driven page fetch.
func ParsePaging(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "cpu", "":
		return false, nil
	case "gpu":
		return true, nil
	}
	return false, fmt.Errorf("unknown paging model %q (want cpu or gpu)", s)
}

// TierStackEntry is one selectable tier stack in the catalog — what
// GET /v1/tiers serves and what the binaries' -tiers flags accept.
type TierStackEntry struct {
	// Name is the canonical catalog name.
	Name string `json:"name"`
	// Aliases are accepted spellings that resolve to this entry.
	Aliases []string `json:"aliases,omitempty"`
	// Tiers is the number of levels in the stack.
	Tiers int `json:"tiers"`
	// Description is a one-line human-readable summary.
	Description string `json:"description"`
}

// tierCatalog is the named tier-stack registry, in catalog order. The CXL
// tier's capacity is 4x host DRAM — enough to home graphs that oversubscribe
// DRAM by the ratios the oversubscription suite exercises.
var tierCatalog = []TierStackEntry{
	{
		Name:        "2tier",
		Aliases:     []string{"two-tier", "pcie", "default"},
		Tiers:       2,
		Description: "GPU HBM + host DRAM over PCIe (the classic EMOGI machine)",
	},
	{
		Name:        "3tier-cxl",
		Aliases:     []string{"3tier", "cxl", "three-tier"},
		Tiers:       3,
		Description: "GPU HBM + host DRAM + CXL-class external memory (capacity 4x host DRAM) behind a CXL 2.0 x8 link",
	},
}

// TierStacks returns the selectable tier-stack catalog in registry order.
func TierStacks() []TierStackEntry {
	out := make([]TierStackEntry, len(tierCatalog))
	copy(out, tierCatalog)
	return out
}

// TierStackNames returns every accepted tier-stack spelling (canonical
// names and aliases), sorted — error-message material.
func TierStackNames() []string {
	var names []string
	for _, e := range tierCatalog {
		names = append(names, e.Name)
		names = append(names, e.Aliases...)
	}
	sort.Strings(names)
	return names
}

// TierStackByName resolves a tier-stack catalog entry by canonical name or
// alias (case-insensitive; empty means "2tier"). Unknown names return an
// error listing every accepted spelling.
func TierStackByName(name string) (TierStackEntry, error) {
	e, err := resolveTierStack(name)
	if err != nil {
		return TierStackEntry{}, err
	}
	return *e, nil
}

// resolveTierStack maps a name or alias to its catalog entry.
func resolveTierStack(name string) (*TierStackEntry, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	if s == "" {
		s = "2tier"
	}
	for i := range tierCatalog {
		e := &tierCatalog[i]
		if e.Name == s {
			return e, nil
		}
		for _, a := range e.Aliases {
			if a == s {
				return e, nil
			}
		}
	}
	return nil, fmt.Errorf("emogi: unknown tier stack %q (valid: %s)",
		name, strings.Join(TierStackNames(), ", "))
}

// ApplyTierStack applies a named catalog tier stack to a system
// configuration: "2tier" (and its aliases) leaves the platform's two-tier
// stack untouched; "3tier-cxl" extends cfg.GPU.Tiers with a CXL-class
// external tier of capacity 4x the host DRAM tier's. Unknown names list
// the valid spellings.
func ApplyTierStack(cfg SystemConfig, name string) (SystemConfig, error) {
	e, err := resolveTierStack(name)
	if err != nil {
		return cfg, err
	}
	switch e.Name {
	case "2tier":
		return cfg, nil
	case "3tier-cxl":
		ts := cfg.GPU.Tiers
		if err := ts.Validate(); err != nil {
			return cfg, err
		}
		cfg.GPU.Tiers = memsys.ThreeTierCXL(ts, 4*ts.DRAM().CapacityBytes)
		return cfg, nil
	default:
		return cfg, fmt.Errorf("emogi: tier stack %q has no builder", e.Name)
	}
}
