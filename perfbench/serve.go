package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	emogi "repro"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// serve-mix drives an in-process traversal service with an open loop: a
// single generator sends each seeded arrival at its due time whatever the
// service's progress, and every request is timed from that due time.
const (
	serveScale       = 0.05
	serveRate        = 12.0 // arrivals per second
	serveBatchWindow = 2 * time.Millisecond
	serveSetupReps   = 5
	hotSetSize       = 64
	burstSize        = 4
)

// serveSetup is one built service with its graphs loaded.
type serveSetup struct {
	svc    *service.Service
	graphs map[string]*emogi.Graph
}

func setupServe(rec *telemetry.Recorder, tr *tracer) (*serveSetup, error) {
	root := tr.begin("bench", "bench.setup", 0)
	defer tr.end(root)
	cfg := emogi.V100PCIe3(serveScale)
	cfg.Workers = workers
	if tr != nil {
		cfg.Telemetry = tr
	}
	s := &serveSetup{graphs: map[string]*emogi.Graph{}}
	s.svc = service.New(emogi.NewSystem(cfg), service.Config{
		Concurrency: 2,
		BatchWindow: serveBatchWindow,
		Recorder:    rec,
	})
	for _, sym := range datasets {
		id := tr.begin("graph", "graph.build", root)
		g, err := emogi.BuildDataset(sym, serveScale, datasetSeed)
		tr.end(id)
		if err != nil {
			s.svc.Close()
			return nil, err
		}
		id = tr.begin("core", "core.load", root)
		err = s.svc.AddGraph(sym, g)
		tr.end(id)
		if err != nil {
			s.svc.Close()
			return nil, fmt.Errorf("add %s: %w", sym, err)
		}
		s.graphs[sym] = g
	}
	return s, nil
}

// arrival is one due time with the requests sent at it: one request, or a
// same-instant burst of bfs sources.
type arrival struct {
	due  time.Duration
	reqs []service.Request
}

// arrivalKind is one kind of arrival in the traffic mix.
type arrivalKind struct {
	dataset, algo string
	burst         bool
}

// mixBlock is one block of the traffic mix: per graph, four bfs arrivals
// of which one is a burst; sssp; and cc on GK only. Every block of
// len(mixBlock) arrivals holds each kind exactly this often, in a seeded
// order, so the mix's proportions do not vary with the seed.
var mixBlock = []arrivalKind{
	{"GK", "bfs", false}, {"GK", "bfs", false}, {"GK", "bfs", false}, {"GK", "bfs", true},
	{"GK", "sssp", false}, {"GK", "sssp", false}, {"GK", "sssp", false}, {"GK", "cc", false},
	{"SK", "bfs", false}, {"SK", "bfs", false}, {"SK", "bfs", false}, {"SK", "bfs", true},
	{"SK", "sssp", false}, {"SK", "sssp", false}, {"SK", "sssp", false}, {"SK", "sssp", false},
}

// schedule draws the arrivals for seconds of traffic from seed. Sources
// alternate per graph between a hot set and the rest of the graph, each
// drawn uniformly.
func schedule(graphs map[string]*emogi.Graph, seed int64, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	hot, cold := map[string][]int{}, map[string][]int{}
	for i, sym := range datasets {
		hot[sym] = emogi.PickSources(graphs[sym], hotSetSize, seed*31+int64(i)+1)
		cold[sym] = emogi.PickSources(graphs[sym], 4096, seed*31+int64(i)+17)
	}
	drawn := map[string]int{}
	src := func(sym string) int {
		pool := cold[sym]
		if drawn[sym]%2 == 0 {
			pool = hot[sym]
		}
		drawn[sym]++
		return pool[rng.Intn(len(pool))]
	}
	n := int(serveRate * seconds)
	out := make([]arrival, 0, n)
	var block []arrivalKind
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			block = append(block, mixBlock...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[0]
		block = block[1:]
		a := arrival{due: time.Duration(float64(i) / serveRate * float64(time.Second))}
		k := 1
		if kind.burst {
			k = burstSize
		}
		for j := 0; j < k; j++ {
			a.reqs = append(a.reqs, service.Request{
				Dataset: kind.dataset, Algo: kind.algo, Src: src(kind.dataset), Variant: emogi.MergedAligned,
			})
		}
		out = append(out, a)
	}
	return out
}

// served is one open-loop request's outcome, timed from the run start.
type served struct {
	req       service.Request
	due, done time.Duration
	err       error
	sum       uint64
}

// openLoop sends the schedule and waits for every request to finish. It
// returns the per-request outcomes and how late each arrival was sent.
func openLoop(ctx context.Context, svc *service.Service, sched []arrival, tr *tracer) ([]served, []float64) {
	loop := tr.begin("bench", "bench.openloop", 0)
	defer tr.end(loop)
	if tr != nil {
		tr.setRunParent(loop)
	}
	var total int
	for _, a := range sched {
		total += len(a.reqs)
	}
	out := make([]served, total)
	lag := make([]float64, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	i := 0
	for ai, a := range sched {
		time.Sleep(time.Until(start.Add(a.due)))
		lag[ai] = float64(time.Since(start)-a.due) / 1e6
		for _, req := range a.reqs {
			wg.Add(1)
			go func(i int, req service.Request, due time.Duration) {
				defer wg.Done()
				id := tr.begin("service", "service.do", loop)
				res, err := svc.Do(ctx, req)
				done := time.Since(start)
				tr.end(id)
				s := served{req: req, due: due, done: done, err: err}
				if err == nil {
					s.sum = checksum(res.Values)
				}
				out[i] = s
			}(i, req, a.due)
			i++
		}
	}
	wg.Wait()
	return out, lag
}

// serveKey identifies a traversal's output: cc ignores its source.
type serveKey struct {
	dataset, algo string
	src           int
}

func keyOf(r service.Request) serveKey {
	if r.Algo == "cc" {
		return serveKey{r.Dataset, r.Algo, -1}
	}
	return serveKey{r.Dataset, r.Algo, r.Src}
}

func runServeMix(ctx context.Context, o runOpts) (*outcome, error) {
	var tr *tracer
	var rec *telemetry.Recorder
	if o.trace {
		// The traced run keeps every request's lifecycle stages.
		tr = newTracer()
		rec = telemetry.NewRecorder(int(serveRate*o.seconds+1) * burstSize)
	}
	out := &outcome{metrics: map[string]float64{}}
	var s *serveSetup
	setupS, err := setupMany(serveSetupReps, func() (func(), error) {
		var err error
		s, err = setupServe(rec, tr)
		if err != nil {
			return nil, err
		}
		return s.svc.Close, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.svc.Close()
	sched := schedule(s.graphs, o.seed, o.seconds)

	res, lag := openLoop(ctx, s.svc, sched, tr)
	out.metrics["heap_retained_mb"] = retainedHeapMiB()

	var lat []float64
	var last time.Duration
	byKey := map[serveKey][]served{}
	var keys []serveKey
	for _, r := range res {
		out.attempted++
		if r.err != nil {
			fmt.Printf("error: %s %s src %d: %v\n", r.req.Dataset, r.req.Algo, r.req.Src, r.err)
			out.failed++
			continue
		}
		lat = append(lat, float64(r.done-r.due)/1e6)
		last = max(last, r.done)
		k := keyOf(r.req)
		if _, seen := byKey[k]; !seen {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	reg := s.svc.Registry()
	counter := func(name string) float64 { return float64(reg.Counter(name, "", nil).Value()) }
	hits := counter("emogi_serve_cache_hits_total")
	misses := counter("emogi_serve_cache_misses_total")
	batched := counter("emogi_batched_runs_total")
	fmt.Printf("open loop: %d arrivals, %d requests, %d failed, %.0f cache hits, %.0f batched runs; latency n=%d p50 %.1f ms p90 %.1f ms; generator lag p50 %.3f ms max %.3f ms\n",
		len(sched), len(res), out.failed, hits, batched, len(lat), median(lat), quantile(lat, 0.9), median(lag), quantile(lag, 1))

	// Check pass, outside the timed loop: one library Do per distinct
	// served query on a separate System; every served result must match
	// its checksum, and the library result must match the CPU reference.
	lib, err := setupLibrary(serveScale, workers, emogi.StaticPolicy(emogi.ZeroCopy), nil)
	if err != nil {
		return nil, err
	}
	defer lib.unload()
	if tr != nil {
		tr.resetCounts()
	}
	var stats passStats
	var hostUntraced, hostTraced time.Duration
	check := tr.begin("bench", "bench.check", 0)
	for _, k := range keys {
		q := libQuery{k.dataset, k.algo, max(k.src, 0)}
		var ref queryRun
		for _, t := range modes(tr) {
			out.attempted++
			r, err := lib.do(ctx, q, t, check)
			if err != nil {
				fmt.Println("error:", err)
				out.failed++
				continue
			}
			if t == nil {
				hostUntraced += r.host
				ref = r
			} else {
				hostTraced += r.host
				if ref.res != nil && !sameRun(ref, r) {
					fmt.Printf("error: %v: traced run differs from untraced run\n", k)
					out.failed++
				}
			}
		}
		if ref.res == nil {
			continue
		}
		id := tr.begin("graph", "graph.ref", 0)
		err := emogi.Validate(lib.graphs[k.dataset], ref.res)
		tr.end(id)
		if err != nil {
			fmt.Printf("error: %v: %v\n", k, err)
			out.failed++
		}
		for _, sv := range byKey[k] {
			if sv.sum != ref.sum {
				fmt.Printf("error: %v: served checksum %016x, library %016x\n", k, sv.sum, ref.sum)
				out.failed++
			}
		}
		stats.add(ref, lib.edgeListBytes(k.dataset))
	}
	tr.end(check)
	fmt.Printf("check pass: %d distinct queries, %d attempted in total, %d failed\n", len(keys), out.attempted, out.failed)

	out.metrics["setup_s"] = setupS
	stats.report(out.metrics)
	out.metrics["host_qps"] = float64(len(lat)) / last.Seconds()
	out.metrics["req_p50_ms"] = median(lat)
	out.metrics["req_p90_ms"] = quantile(lat, 0.9)
	out.metrics["error_frac"] = ratio(float64(out.failed), float64(out.attempted))
	if tr != nil {
		out.spans = tr.closed()
		tr.report(out.metrics, out.spans, 1, serveSetupReps)
		out.metrics["telemetry.trace_overhead_pct"] = 100 * (hostTraced.Seconds()/hostUntraced.Seconds() - 1)
		out.metrics["service.cache_hit_ratio"] = ratio(hits, hits+misses)
		out.metrics["service.batched_runs"] = batched
		out.metrics["service.edge_scans_saved"] = counter("emogi_edge_scans_saved_total")
		out.metrics["service.retries"] = counter("emogi_retries_total")
		out.metrics["gen.lag_ms"] = quantile(lag, 1)
		stage := map[string][]float64{}
		for _, r := range rec.Snapshot() {
			for _, sp := range r.Stages {
				stage[sp.Stage] = append(stage[sp.Stage], float64(sp.DurNS)/1e6)
			}
		}
		for name, st := range map[string]string{"queue_wait": telemetry.StageQueue, "execute": telemetry.StageExecute} {
			out.metrics["service."+name+"_ms_p50"] = median(stage[st])
			out.metrics["service."+name+"_ms_p99"] = quantile(stage[st], 0.99)
		}
	}
	return out, nil
}
