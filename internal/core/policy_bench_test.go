package core

import "testing"

// BenchmarkAdaptiveDecide measures the per-round host cost of the adaptive
// policy's decision pass over a GK-sized partition table (21 segments at
// the probe scale; 64 here to be conservative). This is pure host
// orchestration overhead — it must stay far below the microseconds-range
// simulated round times it steers.
func BenchmarkAdaptiveDecide(b *testing.B) {
	const nParts = 64
	costs := CostParams{
		Host:              testHostLink,
		UVMChunkBytes:     128 << 10,
		StagedBudgetBytes: 512 << 10,
		UVMBudgetBytes:    768 << 10,
		HoldRounds:        2,
		SwitchMargin:      1.25,
	}
	parts := make([]PartitionStats, nParts)
	state := make([]PartitionState, nParts)
	for i := range parts {
		parts[i] = PartitionStats{
			Bytes:         64 << 10,
			AccessedBytes: int64(i) * 1024,
			Requests:      int64(i) * 40,
		}
		state[i] = PartitionState{Choice: Choice(i % 3), Since: i % 5, SpentSeconds: float64(i) * 1e-6}
		state[i].Staged = state[i].Choice == ChoiceStaged
	}
	pol := AdaptivePolicy()
	out := make([]Choice, nParts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Decide(i%16, parts, state, costs, out)
	}
}
