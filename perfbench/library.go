package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	emogi "repro"
	"repro/internal/gpu"
)

// libWorkload is a closed loop with one caller running System.Do over
// GK and SK, bfs and sssp, merged+aligned, with cold caches.
type libWorkload struct {
	name   string
	scale  float64
	policy func() emogi.TransportPolicy
	rounds int // rounds of seeded sources in one pass
}

var (
	zcTraverse = libWorkload{"zc-traverse", 1.0,
		func() emogi.TransportPolicy { return emogi.StaticPolicy(emogi.ZeroCopy) }, 7}
	adaptivePaging = libWorkload{"adaptive-paging", 1.0, emogi.AdaptivePolicy, 5}
)

// datasets are the two graphs every workload loads: GK, an undirected
// Kronecker graph that oversubscribes GPU memory, and SK, a directed web
// graph that fits. Graphs are the fixed Table 2 analogs; the seed draws
// the queries.
var datasets = []string{"GK", "SK"}

const (
	datasetSeed = 42
	setupReps   = 3
	mib         = 1 << 20
)

// libSetup is one built and loaded set of graphs on a System.
type libSetup struct {
	sys    *emogi.System
	graphs map[string]*emogi.Graph
	dgs    map[string]*emogi.DeviceGraph
}

// setupLibrary builds the datasets and loads them onto a fresh System.
func setupLibrary(scale float64, nWorkers int, pol emogi.TransportPolicy, tr *tracer) (*libSetup, error) {
	root := tr.begin("bench", "bench.setup", 0)
	defer tr.end(root)
	cfg := emogi.V100PCIe3(scale)
	cfg.Workers = nWorkers
	s := &libSetup{sys: emogi.NewSystem(cfg), graphs: map[string]*emogi.Graph{}, dgs: map[string]*emogi.DeviceGraph{}}
	for _, sym := range datasets {
		id := tr.begin("graph", "graph.build", root)
		g, err := emogi.BuildDataset(sym, scale, datasetSeed)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("core", "core.load", root)
		dg, err := s.sys.Load(g, emogi.WithTransportPolicy(pol))
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", sym, err)
		}
		s.graphs[sym], s.dgs[sym] = g, dg
	}
	return s, nil
}

// edgeListBytes is the size of a loaded graph's edge list.
func (s *libSetup) edgeListBytes(sym string) float64 {
	return float64(s.graphs[sym].NumEdges()) * float64(s.dgs[sym].EdgeBytes)
}

func (s *libSetup) unload() {
	for _, dg := range s.dgs {
		s.sys.Unload(dg)
	}
}

type libQuery struct {
	graph, algo string
	src         int
}

// queries returns one pass of the given number of rounds. Each round runs
// bfs and sssp from a fresh seeded source on each graph, plus bfs on GK
// from a second source: GK bfs is the paper's headline cell, and the extra
// query puts the median call inside the GK bfs latencies instead of on the
// boundary between two cells' latencies, where it would jump between them.
func (s *libSetup) queries(seed int64, rounds int) []libQuery {
	gk := emogi.PickSources(s.graphs["GK"], 2*rounds, seed)
	sk := emogi.PickSources(s.graphs["SK"], rounds, seed)
	var qs []libQuery
	for i := 0; i < rounds; i++ {
		qs = append(qs,
			libQuery{"GK", "bfs", gk[i]}, libQuery{"GK", "sssp", gk[i]},
			libQuery{"SK", "bfs", sk[i]}, libQuery{"SK", "sssp", sk[i]},
			libQuery{"GK", "bfs", gk[rounds+i]})
	}
	return qs
}

// queryRun is one System.Do call and what the monitor saw during it.
type queryRun struct {
	res                   *emogi.Result
	sum                   uint64
	host                  time.Duration
	payload, wire, staged uint64
}

// do runs one query. With a tracer, the device's telemetry hooks are
// attached for this call only and the call is a core.do span.
func (s *libSetup) do(ctx context.Context, q libQuery, tr *tracer, parent int) (queryRun, error) {
	dev := s.sys.Device()
	before := dev.Monitor().Snapshot()
	var id int
	if tr != nil {
		id = tr.begin("core", "core.do", parent)
		tr.setRunParent(id)
		dev.SetTelemetry(tr)
	}
	t0 := time.Now()
	res, err := s.sys.Do(ctx, emogi.Request{
		Graph: s.dgs[q.graph], Algo: q.algo, Src: q.src, Variant: emogi.MergedAligned, Cold: true,
	})
	host := time.Since(t0)
	if tr != nil {
		dev.SetTelemetry(nil)
		tr.end(id)
	}
	if err != nil {
		return queryRun{}, fmt.Errorf("%s %s src %d: %w", q.graph, q.algo, q.src, err)
	}
	after := dev.Monitor().Snapshot()
	return queryRun{
		res:     res,
		sum:     checksum(res.Values),
		host:    host,
		payload: after.PayloadBytes - before.PayloadBytes,
		wire:    after.WireBytes - before.WireBytes,
		staged:  after.ByClass["staged"] - before.ByClass["staged"],
	}, nil
}

// sameRun reports whether two runs of one query produced identical
// values, simulated time and counters. Two kinds of Result.Stats field
// depend on what ran before on the device and are left out: the roofline
// seconds, which are differences of running float sums, and the MaxWarp
// fields, which carry the device's lifetime maximum rather than the run's.
func sameRun(a, b queryRun) bool {
	return a.sum == b.sum && a.res.Elapsed == b.res.Elapsed &&
		counters(a.res.Stats) == counters(b.res.Stats) &&
		a.payload == b.payload && a.wire == b.wire && a.staged == b.staged
}

// counters returns st without the fields that depend on earlier runs.
func counters(st gpu.KernelStats) gpu.KernelStats {
	st.WireSeconds, st.TagSeconds, st.CXLWireSeconds, st.CXLTagSeconds, st.UVMSerialSeconds = 0, 0, 0, 0, 0
	st.MaxWarpHostReqs, st.MaxWarpCXLReqs = 0, 0
	return st
}

// setupMany sets up reps times, keeping the last set-up, and returns the
// median set-up time.
func setupMany(reps int, fn func() (func(), error)) (float64, error) {
	var times []float64
	var release func()
	for i := 0; i < reps; i++ {
		if release != nil {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		r, err := fn()
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		release = r
	}
	return median(times), nil
}

func runLibrary(ctx context.Context, w libWorkload, o runOpts) (*outcome, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var s *libSetup
	setupS, err := setupMany(setupReps, func() (func(), error) {
		var err error
		s, err = setupLibrary(w.scale, workers, w.policy(), tr)
		if err != nil {
			return nil, err
		}
		return s.unload, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.unload()
	queries := s.queries(o.seed, w.rounds)
	out := &outcome{metrics: map[string]float64{}}
	if tr != nil {
		tr.resetCounts()
	}

	// Closed loop over whole passes while the next pass is predicted to
	// end within the run; the first pass is the reference that every
	// later (and every traced) run of a query must reproduce exactly.
	first := make([]queryRun, len(queries))
	var lat []float64
	var hostUntraced, hostTraced time.Duration
	passes := 0
	loop := tr.begin("bench", "bench.loop", 0)
	start := time.Now()
	for {
		passStart := time.Now()
		for i, q := range queries {
			for _, t := range modes(tr) {
				out.attempted++
				r, err := s.do(ctx, q, t, loop)
				if err != nil {
					fmt.Println("error:", err)
					out.failed++
					continue
				}
				if t == nil {
					hostUntraced += r.host
					lat = append(lat, float64(r.host)/1e6)
				} else {
					hostTraced += r.host
				}
				if first[i].res == nil {
					first[i] = r
				} else if !sameRun(first[i], r) {
					fmt.Printf("error: %s %s src %d: run differs from the query's first run\n", q.graph, q.algo, q.src)
					out.failed++
				}
			}
		}
		passes++
		passDur := time.Since(passStart)
		if time.Since(start)+passDur > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	tr.end(loop)

	// Outside the timed region: validate the first run of every query
	// against the CPU reference, then drop the results.
	var stats passStats
	for i, q := range queries {
		r := first[i]
		if r.res == nil {
			continue
		}
		id := tr.begin("graph", "graph.ref", 0)
		err := emogi.Validate(s.graphs[q.graph], r.res)
		tr.end(id)
		if err != nil {
			fmt.Printf("error: %s %s src %d: %v\n", q.graph, q.algo, q.src, err)
			out.failed++
		}
		stats.add(r, s.edgeListBytes(q.graph))
	}
	out.metrics["heap_retained_mb"] = retainedHeapMiB()

	fmt.Printf("loop: %d queries per pass, %d passes, %d attempted, %d failed; untraced call latency n=%d p50 %.1f ms p90 %.1f ms\n",
		len(queries), passes, out.attempted, out.failed, len(lat), median(lat), quantile(lat, 0.9))
	out.metrics["setup_s"] = setupS
	stats.report(out.metrics)
	out.metrics["host_qps"] = float64(len(lat)) / hostUntraced.Seconds()
	out.metrics["req_p50_ms"] = median(lat)
	out.metrics["req_p90_ms"] = quantile(lat, 0.9)
	out.metrics["error_frac"] = ratio(float64(out.failed), float64(out.attempted))
	if tr != nil {
		out.spans = tr.closed()
		tr.report(out.metrics, out.spans, passes, setupReps)
		out.metrics["telemetry.trace_overhead_pct"] = 100 * (hostTraced.Seconds()/hostUntraced.Seconds() - 1)
		for _, name := range serviceMetrics {
			out.metrics[name] = 0
		}
	}
	return out, nil
}

// modes returns the tracers a query runs under: untraced, then traced
// as well when the run is traced, so the pair gives the tracing overhead.
func modes(tr *tracer) []*tracer {
	if tr == nil {
		return []*tracer{nil}
	}
	return []*tracer{nil, tr}
}

// retainedHeapMiB is the live heap after a full collection.
func retainedHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// serviceMetrics are the service-layer metrics, 0 where no service runs.
var serviceMetrics = []string{
	"service.cache_hit_ratio", "service.batched_runs", "service.edge_scans_saved",
	"service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
	"service.execute_ms_p50", "service.execute_ms_p99", "service.retries", "gen.lag_ms",
}

// passStats sums the simulated counters of one pass.
type passStats struct {
	simNS, edgeBytes                  float64
	warpInstrs, pcieReqs, pciePayload float64
	hbm, dram, migrations, uvmHits    float64
	wireS, tagS, uvmSerialS           float64
	monPayload, monWire, staged       float64
}

// add folds in one query's run; edgeBytes is its graph's edge-list size.
func (e *passStats) add(r queryRun, edgeBytes float64) {
	st := r.res.Stats
	e.simNS += float64(r.res.Elapsed)
	e.edgeBytes += edgeBytes
	e.warpInstrs += float64(st.WarpInstrs)
	e.pcieReqs += float64(st.PCIeRequests)
	e.pciePayload += float64(st.PCIePayloadBytes)
	e.hbm += float64(st.HBMBytes)
	e.dram += float64(st.HostDRAMBytes)
	e.migrations += float64(st.UVMMigrations)
	e.uvmHits += float64(st.UVMHits)
	e.wireS += st.WireSeconds
	e.tagS += st.TagSeconds
	e.uvmSerialS += st.UVMSerialSeconds
	e.monPayload += float64(r.payload)
	e.monWire += float64(r.wire)
	e.staged += float64(r.staged)
}

// report adds the simulated metrics of one pass.
func (e *passStats) report(m map[string]float64) {
	m["sim_ms"] = e.simNS / 1e6
	m["io_amp"] = ratio(e.monPayload, e.edgeBytes)
	m["gpu.warp_instrs"] = e.warpInstrs
	m["pcie.requests"] = e.pcieReqs
	m["pcie.mean_req_bytes"] = ratio(e.pciePayload, e.pcieReqs)
	m["pcie.payload_wire_ratio"] = ratio(e.monPayload, e.monWire)
	m["pcie.wire_s"] = e.wireS
	m["pcie.tag_s"] = e.tagS
	m["pcie.payload_gbps"] = ratio(e.monPayload, e.simNS)
	m["memsys.hbm_mb"] = e.hbm / mib
	m["memsys.dram_mb"] = e.dram / mib
	m["memsys.dram_per_payload"] = ratio(e.dram, e.pciePayload)
	m["uvm.migrations"] = e.migrations
	m["uvm.hit_ratio"] = ratio(e.uvmHits, e.uvmHits+e.migrations)
	m["uvm.serial_s"] = e.uvmSerialS
	m["core.staged_copy_mb"] = e.staged / mib
}
