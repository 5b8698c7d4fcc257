package emogi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

// The batched-execution equivalence battery. The contract under test
// (DESIGN.md §13): every lane of a DoBatch returns Values and Iterations
// bit-for-bit identical to the same request run alone, for every
// algorithm with a batched mode, on both transports, for every kernel
// variant, at every host worker count — and the whole batch costs
// measurably fewer edge scans than running the lanes back to back.

// batchedAlgos are the applications with a native batched engine mode.
var batchedAlgos = []string{"bfs", "sssp", "sswp"}

// singleReference runs each source alone and returns the per-source
// Results, the bit-exact targets every batched lane must reproduce.
func singleReference(t *testing.T, algo string, variant Variant, srcs []int) []*Result {
	t.Helper()
	sys := NewSystem(V100PCIe3(smallScale))
	g, err := BuildDataset("GK", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*Result, len(srcs))
	for i, src := range srcs {
		res, err := sys.Do(context.Background(), Request{
			Graph: dg, Algo: algo, Src: src, Variant: variant, Cold: true,
		})
		if err != nil {
			t.Fatalf("reference %s/src=%d: %v", algo, src, err)
		}
		refs[i] = res
	}
	return refs
}

// laneEqual reports whether a batched lane reproduced its single-source
// reference on the fields the batching contract pins bit-for-bit.
// (Elapsed and Stats describe the shared batch run by design.)
func laneEqual(got, want *Result) bool {
	if got.Iterations != want.Iterations || len(got.Values) != len(want.Values) {
		return false
	}
	for i := range got.Values {
		if got.Values[i] != want.Values[i] {
			return false
		}
	}
	return true
}

func TestBatchEquivalence(t *testing.T) {
	g, err := BuildDataset("GK", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 5, 11)
	if len(srcs) < 2 {
		t.Fatalf("PickSources returned %d sources, need at least 2", len(srcs))
	}

	// References once per (algo, variant): Values and Iterations do not
	// depend on transport or worker count (that independence is itself
	// asserted below by comparing every batched combination against the
	// same reference).
	type refKey struct {
		algo    string
		variant Variant
	}
	refs := map[refKey][]*Result{}
	for _, algo := range batchedAlgos {
		for _, variant := range []Variant{Merged, MergedAligned} {
			refs[refKey{algo, variant}] = singleReference(t, algo, variant, srcs)
		}
	}

	// batchSig serializes the full batch outcome (values, iterations,
	// stats, elapsed) so runs at different worker counts can be compared
	// bit-for-bit: the engine's determinism contract says the simulated
	// outcome never depends on host parallelism.
	batchSig := func(out *BatchOutcome) string {
		var sb strings.Builder
		for _, item := range out.Results {
			r := item.Res
			fmt.Fprintf(&sb, "%d/%d/%v/%d/%d/%d|", r.Iterations, r.BatchSize, r.Elapsed,
				r.Stats.WarpInstrs, r.Stats.PCIeRequests, r.Stats.PCIePayloadBytes)
			for _, v := range r.Values {
				fmt.Fprintf(&sb, "%x,", v)
			}
		}
		fmt.Fprintf(&sb, "scans=%d/saved=%d", out.EdgeScans, out.EdgeScansSaved)
		return sb.String()
	}

	type comboKey struct {
		algo      string
		transport Transport
		variant   Variant
	}
	sigByCombo := map[comboKey]map[int]string{} // -> workers -> signature

	for _, transport := range []Transport{ZeroCopy, UVM} {
		for _, variant := range []Variant{Merged, MergedAligned} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", transport, variant, workers)
				t.Run(name, func(t *testing.T) {
					cfg := V100PCIe3(smallScale)
					cfg.Workers = workers
					sys := NewSystem(cfg)
					dg, err := sys.Load(g, WithTransportPolicy(StaticPolicy(transport)))
					if err != nil {
						t.Fatal(err)
					}
					for _, algo := range batchedAlgos {
						reqs := make([]Request, len(srcs))
						for i, src := range srcs {
							reqs[i] = Request{Graph: dg, Algo: algo, Src: src, Variant: variant, Cold: true}
						}
						out, err := sys.DoBatch(context.Background(), reqs)
						if err != nil {
							t.Fatalf("%s: DoBatch: %v", algo, err)
						}
						if !out.BatchedRun {
							t.Fatalf("%s: BatchedRun = false, want a shared engine run", algo)
						}
						if out.EdgeScansSaved == 0 {
							t.Errorf("%s: EdgeScansSaved = 0 across %d lanes, want sharing", algo, len(srcs))
						}
						want := refs[refKey{algo, variant}]
						for i, item := range out.Results {
							if item.Err != nil {
								t.Fatalf("%s lane %d: %v", algo, i, item.Err)
							}
							if item.Res.BatchSize != len(srcs) {
								t.Errorf("%s lane %d: BatchSize = %d, want %d",
									algo, i, item.Res.BatchSize, len(srcs))
							}
							if err := Validate(g, item.Res); err != nil {
								t.Errorf("%s lane %d: %v", algo, i, err)
							}
							if !laneEqual(item.Res, want[i]) {
								t.Errorf("%s lane %d (src=%d): diverged from single-source run: "+
									"iterations %d vs %d", algo, i, srcs[i],
									item.Res.Iterations, want[i].Iterations)
							}
						}
						key := comboKey{algo, transport, variant}
						if sigByCombo[key] == nil {
							sigByCombo[key] = map[int]string{}
						}
						sigByCombo[key][workers] = batchSig(out)
					}
				})
			}
		}
	}

	// Serial-vs-parallel determinism: the full batch outcome — including
	// the shared Stats and simulated Elapsed — is identical at 1 and 4
	// host workers for every combination.
	for key, byWorkers := range sigByCombo {
		if byWorkers[1] != byWorkers[4] {
			t.Errorf("%s/%s/%s: batch outcome differs between 1 and 4 workers",
				key.algo, key.transport, key.variant)
		}
	}
}

// TestBatchFallback: algorithms without a batched mode (cc, the
// specialty traversals) run lane-by-lane behind the same DoBatch call,
// report BatchedRun=false, and still match their single runs exactly.
func TestBatchFallback(t *testing.T) {
	g, err := BuildDataset("GK", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 3, 13)
	sys := NewSystem(V100PCIe3(smallScale))
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"cc", "bfs-worker8"} {
		reqs := make([]Request, len(srcs))
		for i, src := range srcs {
			reqs[i] = Request{Graph: dg, Algo: algo, Src: src, Cold: true}
		}
		out, err := sys.DoBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("%s: DoBatch: %v", algo, err)
		}
		if out.BatchedRun {
			t.Errorf("%s: BatchedRun = true for an algorithm without a batched mode", algo)
		}
		if out.EdgeScansSaved != 0 {
			t.Errorf("%s: EdgeScansSaved = %d on the sequential fallback, want 0", algo, out.EdgeScansSaved)
		}
		for i, item := range out.Results {
			if item.Err != nil {
				t.Fatalf("%s lane %d: %v", algo, i, item.Err)
			}
			if item.Res.BatchSize != 0 {
				t.Errorf("%s lane %d: BatchSize = %d on fallback, want 0", algo, i, item.Res.BatchSize)
			}
			want, err := sys.Do(context.Background(), Request{Graph: dg, Algo: algo, Src: srcs[i], Cold: true})
			if err != nil {
				t.Fatal(err)
			}
			if !laneEqual(item.Res, want) {
				t.Errorf("%s lane %d: fallback lane diverged from single run", algo, i)
			}
		}
	}
}

// TestBatchLaneCancel: a canceled Request.Ctx detaches only its own
// lane — the lane reports the typed cancellation error, the rest of the
// batch completes bit-identically to an uncanceled run.
func TestBatchLaneCancel(t *testing.T) {
	g, err := BuildDataset("GK", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 4, 17)
	sys := NewSystem(V100PCIe3(smallScale))
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	reqs := make([]Request, len(srcs))
	for i, src := range srcs {
		reqs[i] = Request{Graph: dg, Algo: "bfs", Src: src, Cold: true}
	}
	const victim = 2
	reqs[victim].Ctx = canceled

	out, err := sys.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := singleReference(t, "bfs", Merged, srcs)
	for i, item := range out.Results {
		if i == victim {
			if !errors.Is(item.Err, ErrCanceled) {
				t.Fatalf("victim lane: err = %v, want ErrCanceled", item.Err)
			}
			var ce *CanceledError
			if !errors.As(item.Err, &ce) {
				t.Fatalf("victim lane: err = %v, want *CanceledError", item.Err)
			} else if ce.Rounds != 0 {
				t.Errorf("victim lane: ran %d round(s) before detaching, want 0", ce.Rounds)
			}
			continue
		}
		if item.Err != nil {
			t.Fatalf("lane %d: %v", i, item.Err)
		}
		if !laneEqual(item.Res, want[i]) {
			t.Errorf("lane %d: result diverged after a batchmate was canceled", i)
		}
	}

	// Whole-batch cancellation still surfaces as one typed error.
	if _, err := sys.DoBatch(canceled, reqs); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled batch: err = %v, want ErrCanceled", err)
	}
}

// TestBatchLaneErrors: a bad source fails only its own lane; malformed
// batches fail as a whole with a descriptive error.
func TestBatchLaneErrors(t *testing.T) {
	g, err := BuildDataset("GK", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(V100PCIe3(smallScale))
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 2, 19)

	out, err := sys.DoBatch(context.Background(), []Request{
		{Graph: dg, Algo: "bfs", Src: srcs[0]},
		{Graph: dg, Algo: "bfs", Src: g.NumVertices() + 5},
		{Graph: dg, Algo: "bfs", Src: srcs[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[1].Err == nil || !strings.Contains(out.Results[1].Err.Error(), "out of range") {
		t.Errorf("out-of-range lane: err = %v, want out-of-range error", out.Results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if out.Results[i].Err != nil {
			t.Errorf("lane %d: %v, want success beside a failed lane", i, out.Results[i].Err)
		} else if err := Validate(g, out.Results[i].Res); err != nil {
			t.Errorf("lane %d: %v", i, err)
		}
	}

	whole := []struct {
		name string
		reqs []Request
		frag string
	}{
		{"empty", nil, "at least one request"},
		{"nil graph", []Request{{Algo: "bfs"}}, "requires Request.Graph"},
		{"no algo", []Request{{Graph: dg}}, "requires Request.Algo"},
		{"unknown algo", []Request{{Graph: dg, Algo: "dfs"}}, "unknown algorithm"},
		{"mixed algo", []Request{{Graph: dg, Algo: "bfs"}, {Graph: dg, Algo: "sssp"}}, "names algo"},
		{"mixed variant", []Request{
			{Graph: dg, Algo: "bfs", Variant: Merged},
			{Graph: dg, Algo: "bfs", Variant: Naive},
		}, "variant"},
	}
	for _, tc := range whole {
		_, err := sys.DoBatch(context.Background(), tc.reqs)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want message containing %q", tc.name, err, tc.frag)
		}
	}
}

// TestBatchTransientFault: injected transient faults abort the whole
// batch with the typed transient error — the retry ladder lives in the
// service layer, so DoBatch itself must surface the failure cleanly.
func TestBatchTransientFault(t *testing.T) {
	inj, err := fault.New(fault.Config{Seed: 5, ReadFaultRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cfg := V100PCIe3(smallScale)
	cfg.Faults = inj
	sys := NewSystem(cfg)
	g, err := BuildDataset("GK", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 4, 23)
	reqs := make([]Request, len(srcs))
	for i, src := range srcs {
		reqs[i] = Request{Graph: dg, Algo: "bfs", Src: src, Cold: true}
	}
	for attempt := 0; attempt < 8; attempt++ {
		if _, err := sys.DoBatch(context.Background(), reqs); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("faulted batch: err = %v, want ErrTransient", err)
			}
			return
		}
	}
	t.Fatal("a 5% read-fault rate never aborted a batch in 8 attempts")
}
