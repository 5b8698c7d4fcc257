package emogi

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/stats"
)

// RunSummary aggregates a multi-source measurement, following §5.2: "we
// pick 64 random vertices from each graph as the starting sources... the
// final execution time is calculated by averaging the execution times".
type RunSummary struct {
	Algo      string // algorithm registry name the runs dispatched through
	Variant   Variant
	Transport Transport
	GraphName string
	Sources   []int

	Results     []*Result
	MeanElapsed time.Duration
	Stats       gpu.KernelStats // summed over all runs
	Monitor     pcie.Snapshot   // link traffic over all runs
}

// MeanBandwidth returns the average PCIe payload bandwidth across the
// summed runs, in bytes/sec.
func (rs *RunSummary) MeanBandwidth() float64 {
	if rs.Stats.Elapsed <= 0 {
		return 0
	}
	return float64(rs.Stats.PCIePayloadBytes) / rs.Stats.Elapsed.Seconds()
}

// IOAmplification returns bytes moved over the link divided by the bytes
// of the dataset the run needed (Figure 10's metric: data transferred /
// dataset size, where the dataset is the edge list plus weights if used).
func (rs *RunSummary) IOAmplification(datasetBytes int64) float64 {
	if datasetBytes <= 0 || len(rs.Results) == 0 {
		return 0
	}
	perRun := float64(rs.Stats.PCIePayloadBytes) / float64(len(rs.Results))
	return perRun / float64(datasetBytes)
}

// RunMany measures the named algorithm (built-in application or specialty
// traversal; see Algorithms) over the given sources and averages, with
// cold caches before each run. Source-free algorithms run once to
// preserve averaging semantics. Every run is validated against the CPU
// reference; a wrong result aborts the measurement.
func (s *System) RunMany(dg *DeviceGraph, name string, sources []int, v Variant) (*RunSummary, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("emogi: RunMany needs at least one source")
	}
	a := core.LookupAlgorithm(name)
	if a == nil {
		return nil, &core.UnknownAlgorithmError{Name: name}
	}
	rs := &RunSummary{
		Algo:      a.Name,
		Variant:   v,
		Transport: dg.Transport,
		GraphName: dg.Graph.Name,
		Sources:   sources,
	}
	mon0 := s.dev.Monitor().Snapshot()
	var total time.Duration
	for _, src := range sources {
		res, err := s.Do(context.Background(),
			Request{Graph: dg, Algo: a.Name, Src: src, Variant: v, Cold: true})
		if err != nil {
			return nil, err
		}
		if err := res.Validate(dg.Graph); err != nil {
			return nil, fmt.Errorf("emogi: %s on %s produced wrong output: %w",
				a.Name, dg.Graph.Name, err)
		}
		rs.Results = append(rs.Results, res)
		rs.Stats.Add(&res.Stats)
		total += res.Elapsed
		if a.NoSource {
			break // no source vertex; one run is the measurement
		}
	}
	rs.MeanElapsed = total / time.Duration(len(rs.Results))
	rs.Monitor = s.dev.Monitor().Snapshot().Delta(mon0)
	return rs, nil
}

// Speedup returns how many times faster b completed than a (a is the
// baseline): a.MeanElapsed / b.MeanElapsed.
func Speedup(baseline, other *RunSummary) float64 {
	if other.MeanElapsed <= 0 {
		return 0
	}
	return float64(baseline.MeanElapsed) / float64(other.MeanElapsed)
}

// MeanSpeedups averages a slice of speedups (the paper's figure captions
// report arithmetic means).
func MeanSpeedups(xs []float64) float64 { return stats.Mean(xs) }
