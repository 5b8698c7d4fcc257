package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// This file pins the traversal engine's observable behavior to the numbers
// the pre-engine (per-app round loop) implementations produced: iteration
// counts, the full simulated counter set, and simulated elapsed time, for
// every application on all six Table 2 dataset analogs plus every specialty
// traversal path. The refactor onto the unified frontier engine must be
// bit-for-bit invisible in these numbers; any drift is a correctness bug,
// not a tolerable regression.
//
// Regenerate (only when intentionally changing the simulation model):
//
//	go test ./internal/core/ -run TestEngineGolden -update-golden

var updateGolden = flag.Bool("update-golden", false,
	"rewrite results/golden-engine.json from the current implementation")

const goldenPath = "../../results/golden-engine.json"

// goldenRecord is one pinned run: identity plus every counter a Result
// carries that the simulation model determines.
type goldenRecord struct {
	Name             string `json:"name"`
	Iterations       int    `json:"iterations"`
	Warps            int    `json:"warps"`
	WarpInstrs       uint64 `json:"warpInstrs"`
	PCIeRequests     uint64 `json:"pcieRequests"`
	PCIePayloadBytes uint64 `json:"pciePayloadBytes"`
	HostDRAMBytes    uint64 `json:"hostDRAMBytes"`
	UVMMigrations    uint64 `json:"uvmMigrations"`
	ElapsedNs        int64  `json:"elapsedNs"`
}

func recordOf(name string, res *Result) goldenRecord {
	return goldenRecord{
		Name:             name,
		Iterations:       res.Iterations,
		Warps:            res.Stats.Warps,
		WarpInstrs:       res.Stats.WarpInstrs,
		PCIeRequests:     res.Stats.PCIeRequests,
		PCIePayloadBytes: res.Stats.PCIePayloadBytes,
		HostDRAMBytes:    res.Stats.HostDRAMBytes,
		UVMMigrations:    res.Stats.UVMMigrations,
		ElapsedNs:        res.Elapsed.Nanoseconds(),
	}
}

// goldenRuns executes the pinned matrix: the three core applications on all
// six datasets (CC where undirected), plus the UVM transport and every
// specialty traversal on GK. Each run gets a fresh device so records are
// independent of suite ordering.
func goldenRuns(t *testing.T) []goldenRecord {
	t.Helper()
	var recs []goldenRecord
	for _, sym := range []string{"GK", "GU", "FS", "ML", "SK", "UK5"} {
		spec, err := graph.BySym(sym)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Build(0.02, 42)
		src := graph.PickSources(g, 1, 71)[0]
		run := func(name string, f func() (*Result, error)) {
			res, err := f()
			if err != nil {
				t.Fatalf("%s/%s: %v", sym, name, err)
			}
			if err := res.Validate(g); err != nil {
				t.Fatalf("%s/%s: %v", sym, name, err)
			}
			recs = append(recs, recordOf(sym+"/"+name, res))
		}
		run("bfs", func() (*Result, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return BFS(context.Background(), dev, dg, src, MergedAligned)
		})
		run("sssp", func() (*Result, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return SSSP(context.Background(), dev, dg, src, MergedAligned)
		})
		if !g.Directed {
			run("cc", func() (*Result, error) {
				dev := testDevice()
				dg, err := Upload(dev, g, ZeroCopy, 8)
				if err != nil {
					return nil, err
				}
				return CC(context.Background(), dev, dg, MergedAligned)
			})
		}
		if sym != "GK" {
			continue
		}
		// Specialty paths, pinned on GK: every other round-loop entry point
		// in the repository.
		run("bfs-uvm", func() (*Result, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, UVM, 8)
			if err != nil {
				return nil, err
			}
			return BFS(context.Background(), dev, dg, src, Merged)
		})
		run("bfs-naive", func() (*Result, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return BFS(context.Background(), dev, dg, src, Naive)
		})
		run("bfs-worker8", func() (*Result, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return BFSWithWorker(context.Background(), dev, dg, src, 8, true)
		})
		run("bfs-worker16-unaligned", func() (*Result, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return BFSWithWorker(context.Background(), dev, dg, src, 16, false)
		})
		run("bfs-compressed", func() (*Result, error) {
			dev := testDevice()
			cdg, err := UploadCompressed(dev, g)
			if err != nil {
				return nil, err
			}
			return BFSCompressed(context.Background(), dev, cdg, src)
		})
		run("bfs-edgecentric", func() (*Result, error) {
			dev := testDevice()
			ec, err := UploadEdgeCentric(dev, g)
			if err != nil {
				return nil, err
			}
			return BFSEdgeCentric(context.Background(), dev, ec, src)
		})
		run("bfs-pushpull", func() (*Result, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return BFSDirectionOptimized(context.Background(), dev, dg, src, DefaultPushPullConfig())
		})
		// Batched lanes, pinned on GK: each lane's record carries its own
		// iteration count plus the batch's shared counters, so both the
		// per-lane convergence and the amortized traffic are pinned.
		bsrcs := graph.PickSources(g, 4, 71)
		for _, app := range []string{"bfs", "sssp", "sswp"} {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				t.Fatalf("GK/%s-batch4: %v", app, err)
			}
			specs := make([]BatchSpec, len(bsrcs))
			for i, src := range bsrcs {
				specs[i] = BatchSpec{Src: src}
			}
			out, err := RunBatchAlgo(context.Background(), dev, dg, app, specs, MergedAligned)
			if err != nil {
				t.Fatalf("GK/%s-batch4: %v", app, err)
			}
			for i, item := range out.Results {
				if item.Err != nil {
					t.Fatalf("GK/%s-batch4 lane %d: %v", app, i, item.Err)
				}
				if err := item.Res.Validate(g); err != nil {
					t.Fatalf("GK/%s-batch4 lane %d: %v", app, i, err)
				}
				recs = append(recs, recordOf(fmt.Sprintf("GK/%s-batch4.q%d", app, i), item.Res))
			}
		}
	}
	return recs
}

// TestEngineGolden compares the full run matrix against the pinned
// pre-refactor records in results/golden-engine.json.
func TestEngineGolden(t *testing.T) {
	t.Parallel()
	recs := goldenRuns(t)
	if *updateGolden {
		out, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenPath), append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(recs), goldenPath)
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenRecord, len(want))
	for _, r := range want {
		byName[r.Name] = r
	}
	if len(recs) != len(want) {
		t.Errorf("run matrix has %d records, golden file has %d", len(recs), len(want))
	}
	for _, got := range recs {
		exp, ok := byName[got.Name]
		if !ok {
			t.Errorf("%s: no golden record (regenerate with -update-golden)", got.Name)
			continue
		}
		if got != exp {
			t.Errorf("%s drifted from pre-refactor behavior:\n got:  %s\n want: %s",
				got.Name, mustJSON(got), mustJSON(exp))
		}
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}
