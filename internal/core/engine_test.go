package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// recordingTelemetry records run labels and flags any kernel or round
// event that fires outside a labeled run — the invariant the engine
// refactor establishes for every traversal entry point.
type recordingTelemetry struct {
	mu        sync.Mutex
	active    map[*gpu.Device]gpu.RunLabels
	runs      []gpu.RunLabels
	unlabeled []string // "kernel:<name>" / "round:<name>" seen outside a run
}

func newRecordingTelemetry() *recordingTelemetry {
	return &recordingTelemetry{active: map[*gpu.Device]gpu.RunLabels{}}
}

func (r *recordingTelemetry) RunBegin(dev *gpu.Device, labels gpu.RunLabels) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active[dev] = labels
	r.runs = append(r.runs, labels)
}

func (r *recordingTelemetry) RunEnd(dev *gpu.Device) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.active, dev)
}

func (r *recordingTelemetry) KernelDone(dev *gpu.Device, ks *gpu.KernelStats, workers, maxWorkers int, start, end time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.active[dev]; !ok {
		r.unlabeled = append(r.unlabeled, "kernel:"+ks.Name)
	}
}

func (r *recordingTelemetry) CopyDone(dev *gpu.Device, toDevice bool, bytes int64, start, end time.Duration) {
	// Bulk copies legitimately happen outside runs (graph upload).
}

func (r *recordingTelemetry) RoundDone(dev *gpu.Device, name string, round int, start, end time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.active[dev]; !ok {
		r.unlabeled = append(r.unlabeled, "round:"+name)
	}
}

// hasRun reports whether a run with the given app and variant label was
// recorded.
func (r *recordingTelemetry) hasRun(app, variant string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.runs {
		if l.App == app && l.Variant == variant {
			return true
		}
	}
	return false
}

// TestEngineTelemetryCoverage drives every traversal entry point —
// built-in applications and specialty kernels — under a recording
// telemetry sink and asserts
// that no kernel launch or traversal round ever fires outside a labeled
// run, and that each entry point announces itself with its own variant
// label.
func TestEngineTelemetryCoverage(t *testing.T) {
	g := graph.Urand("gu", 500, 12, 2)
	g.InitWeights(7, 8, 72)
	src := graph.PickSources(g, 1, 11)[0]
	rec := newRecordingTelemetry()

	dev := testDevice()
	dev.SetTelemetry(rec)
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	singles := []struct {
		app, variant string
		run          func() (*Result, error)
	}{
		{"BFS", "Merged+Aligned", func() (*Result, error) { return BFS(context.Background(), dev, dg, src, MergedAligned) }},
		{"SSSP", "Merged", func() (*Result, error) { return SSSP(context.Background(), dev, dg, src, Merged) }},
		{"CC", "Merged+Aligned", func() (*Result, error) { return CC(context.Background(), dev, dg, MergedAligned) }},
		{"SSWP", "Merged+Aligned", func() (*Result, error) { return SSWP(context.Background(), dev, dg, src, MergedAligned) }},
		{"BFS", "worker8", func() (*Result, error) { return BFSWithWorker(context.Background(), dev, dg, src, 8, true) }},
		{"BFS", "worker16-unaligned", func() (*Result, error) { return BFSWithWorker(context.Background(), dev, dg, src, 16, false) }},
		{"BFS", "pushpull", func() (*Result, error) {
			return BFSDirectionOptimized(context.Background(), dev, dg, src, DefaultPushPullConfig())
		}},
	}
	for _, s := range singles {
		if _, err := s.run(); err != nil {
			t.Fatalf("%s/%s: %v", s.app, s.variant, err)
		}
		if !rec.hasRun(s.app, s.variant) {
			t.Errorf("no labeled run recorded for %s/%s", s.app, s.variant)
		}
	}

	cdg, err := UploadCompressed(dev, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BFSCompressed(context.Background(), dev, cdg, src); err != nil {
		t.Fatal(err)
	}
	cdg.Free(dev)
	if !rec.hasRun("BFS", "compressed") {
		t.Errorf("no labeled run recorded for BFS/compressed")
	}
	ec, err := UploadEdgeCentric(dev, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BFSEdgeCentric(context.Background(), dev, ec, src); err != nil {
		t.Fatal(err)
	}
	ec.Free(dev)
	if !rec.hasRun("BFS", "edgecentric") {
		t.Errorf("no labeled run recorded for BFS/edgecentric")
	}

	if len(rec.unlabeled) > 0 {
		t.Errorf("events outside a labeled run: %v", rec.unlabeled)
	}
}

// TestEngineMatrix runs every registered algorithm across transports,
// variants, and worker counts, validating each result against its CPU
// reference and asserting the engine's bit-for-bit worker-count
// determinism (identical Values, Iterations, and counters regardless of
// how many host goroutines execute the warps).
func TestEngineMatrix(t *testing.T) {
	g := graph.Urand("gu", 500, 12, 2)
	g.InitWeights(7, 8, 72)
	src := graph.PickSources(g, 1, 11)[0]

	type key struct {
		algo, transport string
		variant         Variant
	}
	type outcome struct {
		values     []uint32
		iterations int
		stats      gpu.KernelStats
	}
	baseline := map[key]outcome{}

	for _, workers := range []int{1, 3} {
		for _, a := range Algorithms() {
			variants := allVariants
			if a.FixedVariant {
				variants = []Variant{MergedAligned}
			}
			for _, transport := range []Transport{ZeroCopy, UVM} {
				dev := gpu.NewDevice(gpu.Config{
					Name:    "matrix",
					Workers: workers,
					Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
				})
				dg, err := Upload(dev, g, transport, 8)
				if err != nil {
					t.Fatalf("%s/%s: upload: %v", a.Name, transport, err)
				}
				for _, variant := range variants {
					res, err := a.Run(context.Background(), dev, dg, src, variant)
					if err != nil {
						t.Fatalf("%s/%s/%s w%d: %v", a.Name, transport, variant, workers, err)
					}
					if err := res.Validate(g); err != nil {
						t.Errorf("%s/%s/%s w%d: %v", a.Name, transport, variant, workers, err)
						continue
					}
					k := key{a.Name, transport.String(), variant}
					got := outcome{res.Values, res.Iterations, res.Stats}
					if workers == 1 {
						baseline[k] = got
						continue
					}
					want := baseline[k]
					if got.iterations != want.iterations {
						t.Errorf("%s/%s/%s: iterations diverge across workers: %d vs %d",
							a.Name, transport, variant, got.iterations, want.iterations)
					}
					for v := range want.values {
						if got.values[v] != want.values[v] {
							t.Errorf("%s/%s/%s: values[%d] diverges across workers: %d vs %d",
								a.Name, transport, variant, v, got.values[v], want.values[v])
							break
						}
					}
					if got.stats.PCIeRequests != want.stats.PCIeRequests ||
						got.stats.Warps != want.stats.Warps {
						t.Errorf("%s/%s/%s: counters diverge across workers", a.Name, transport, variant)
					}
				}
				dg.Free(dev)
			}
		}
	}
}

// TestAlgorithmRegistry checks the registry surface: lookup semantics,
// name listing, unknown-name errors, and flag metadata.
func TestAlgorithmRegistry(t *testing.T) {
	names := AlgorithmNames()
	for _, want := range []string{"bfs", "sssp", "cc", "sswp", "bfs-worker8",
		"bfs-pushpull", "bfs-compressed", "bfs-edgecentric"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("AlgorithmNames not sorted: %q before %q", names[i-1], names[i])
		}
	}
	if LookupAlgorithm("BFS") == nil || LookupAlgorithm("bfs") == nil {
		t.Errorf("lookup should be case-insensitive")
	}
	if LookupAlgorithm("nope") != nil {
		t.Errorf("unknown name should return nil")
	}
	if a := LookupAlgorithm("sswp"); a == nil || !a.NeedsWeights {
		t.Errorf("sswp should be registered as weight-requiring")
	}
	if a := LookupAlgorithm("cc"); a == nil || !a.NoSource || !a.NeedsUndirected {
		t.Errorf("cc should be registered source-free and undirected-only")
	}

	g := graph.Urand("gu", 300, 8, 2)
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.PickSources(g, 1, 3)[0]
	if _, err := RunAlgo(context.Background(), dev, dg, "no-such-algo", src, Merged); err == nil {
		t.Errorf("unknown algorithm accepted")
	} else if !strings.Contains(err.Error(), "no-such-algo") {
		t.Errorf("error should name the unknown algorithm: %v", err)
	}
	res, err := RunAlgo(context.Background(), dev, dg, "BFS", src, Merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g); err != nil {
		t.Error(err)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("duplicate registration should panic")
			}
		}()
		RegisterAlgorithm(&Algorithm{Name: "bfs", Run: BFS})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("empty-name registration should panic")
			}
		}()
		RegisterAlgorithm(&Algorithm{})
	}()
}

// TestSSWPCorrectnessMatrix validates the descriptor-only SSWP
// application against the widest-path Dijkstra reference on every graph
// family, variant, and transport.
func TestSSWPCorrectnessMatrix(t *testing.T) {
	for _, g := range testGraphs() {
		for _, transport := range []Transport{ZeroCopy, UVM} {
			dev := testDevice()
			dg, err := Upload(dev, g, transport, 8)
			if err != nil {
				t.Fatalf("%s/%s: upload: %v", g.Name, transport, err)
			}
			src := graph.PickSources(g, 1, 29)[0]
			for _, variant := range allVariants {
				res, err := SSWP(context.Background(), dev, dg, src, variant)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", g.Name, transport, variant, err)
				}
				if err := ValidateSSWP(g, src, res.Values); err != nil {
					t.Errorf("%s/%s/%s: %v", g.Name, transport, variant, err)
				}
				if res.Values[src] != graph.InfDist {
					t.Errorf("%s: source width should be InfDist (empty path)", g.Name)
				}
			}
			dg.Free(dev)
		}
	}
}

func TestSSWPErrors(t *testing.T) {
	g := graph.Urand("u", 200, 8, 1) // no weights
	dev := testDevice()
	dg, _ := Upload(dev, g, ZeroCopy, 8)
	if _, err := SSWP(context.Background(), dev, dg, 0, Merged); err == nil {
		t.Errorf("unweighted SSWP accepted")
	}
	if _, err := SSWP(context.Background(), dev, dg, -1, Merged); err == nil {
		t.Errorf("negative source accepted")
	}
	if _, err := SSWP(context.Background(), dev, dg, g.NumVertices(), Merged); err == nil {
		t.Errorf("out-of-range source accepted")
	}
}

// FuzzEngineConvergence fuzzes the engine's fixed-point loop: random
// graphs and sources across all four Program descriptors must converge
// to exactly the CPU reference in a bounded number of rounds.
func FuzzEngineConvergence(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(4), uint8(0))
	f.Add(int64(2), uint16(200), uint8(8), uint8(1))
	f.Add(int64(3), uint16(33), uint8(2), uint8(2))
	f.Add(int64(4), uint16(150), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nv uint16, deg uint8, algoIdx uint8) {
		n := int(nv)%300 + 2
		avgDeg := int(deg)%8 + 1
		g := graph.Urand("fuzz", n, avgDeg, seed)
		g.InitWeights(seed+1, 1, 64)
		srcs := graph.PickSources(g, 1, seed)
		if srcs == nil {
			t.Skip("no vertex with outgoing edges")
		}
		src := srcs[0]
		algos := []string{"bfs", "sssp", "cc", "sswp"}
		a := LookupAlgorithm(algos[int(algoIdx)%len(algos)])
		if a.NeedsUndirected && g.Directed {
			t.Skip("directed graph for undirected-only algorithm")
		}
		dev := testDevice()
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(context.Background(), dev, dg, src, Merged)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(g); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		// Fixed point must be reached in at most n+1 rounds (every round
		// before the last improves at least one vertex value).
		if res.Iterations < 1 || res.Iterations > n+1 {
			t.Errorf("%s: implausible round count %d for %d vertices",
				a.Name, res.Iterations, n)
		}
	})
}
