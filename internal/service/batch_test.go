package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	emogi "repro"
	"repro/internal/fault"
)

// laneEqual compares the fields the batching contract pins bit-for-bit
// against a single-source reference (Elapsed and Stats of a batched
// Result describe the shared run, so full normalize() comparison does
// not apply across batch widths).
func laneEqual(got, want *emogi.Result) bool {
	if got == nil || want == nil || got.Iterations != want.Iterations ||
		len(got.Values) != len(want.Values) {
		return false
	}
	for i := range got.Values {
		if got.Values[i] != want.Values[i] {
			return false
		}
	}
	return true
}

// TestServiceBatchCoalescing is the coalescing acceptance test, run
// under -race: 64 concurrent same-key requests (16 distinct sources x 4
// waiters each) against a frozen device with only 2 workers and a
// 2-deep queue. Run solo those 64 requests would overwhelm admission
// (capacity 4); coalesced they occupy one slot per batch, so none may
// be shed. Every waiter must get the exact single-source Result (own
// private copy), clean lanes must land in the cache, the batch buffers
// must all be returned to the arena, and the coalescing counters must
// be exactly consistent.
func TestServiceBatchCoalescing(t *testing.T) {
	svc, sys := newTestService(t, Config{
		Concurrency: 2,
		QueueDepth:  2,
		BatchWindow: 150 * time.Millisecond,
		BatchMax:    64,
	})
	defer svc.Close()
	arenaUsed := sys.Device().Arena().GPUUsed()

	// Freeze the device so no batch can execute (or retire) until every
	// request has made its admission decision.
	release := make(chan struct{})
	held := make(chan struct{})
	go sys.Device().Exclusive(func() {
		close(held)
		<-release
	})
	<-held

	const (
		distinct = 16
		waiters  = 4
		requests = distinct * waiters
	)
	results := make([]*emogi.Result, requests)
	errs := make([]error, requests)
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Do(context.Background(), Request{
				Dataset: "GK", Algo: "bfs", Src: i % distinct, Variant: emogi.MergedAligned,
			})
			results[i], errs[i] = res, err
			if errors.Is(err, ErrOverloaded) {
				rejected.Add(1)
			}
		}(i)
	}

	// Wait until the sealed batch has been dispatched and a worker has
	// picked it up (it then blocks on the frozen device). Nothing may
	// have been rejected: the whole point of coalescing is that 64
	// requests cost one admission slot, not 64.
	deadline := time.Now().Add(10 * time.Second)
	for svc.met.inflight.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no batch dispatched within 10s of the window closing")
		}
		time.Sleep(time.Millisecond)
	}
	if got := rejected.Load(); got != 0 {
		t.Fatalf("%d requests shed while coalescing; batches must occupy one admission slot", got)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d (src=%d): %v", i, i%distinct, err)
		}
	}

	// Exact counter consistency: every request missed the cache once and
	// completed ok; the lanes ran as one (or, if a goroutine straggled
	// past the window, very few) batched engine runs that shared edge
	// scans.
	if got := svc.met.requests[outcomeOK].Value(); got != requests {
		t.Errorf("requests{ok} = %d, want %d", got, requests)
	}
	if got := svc.met.cacheMiss.Value(); got != requests {
		t.Errorf("cache misses = %d, want %d", got, requests)
	}
	if got := svc.met.cacheHits.Value(); got != 0 {
		t.Errorf("cache hits = %d, want 0", got)
	}
	batches := svc.met.batchedRuns.Value()
	if batches < 1 {
		t.Error("emogi_batched_runs_total = 0, want at least one batched run")
	}
	if got := svc.met.batchSize.Count(); got != batches {
		t.Errorf("batch size observations = %d, batched runs = %d", got, batches)
	}
	if got := svc.met.edgeScansSaved.Value(); got == 0 {
		t.Error("emogi_edge_scans_saved_total = 0 across 16 shared lanes")
	}
	t.Logf("batched runs = %d, edge scans saved = %d", batches, svc.met.edgeScansSaved.Value())

	// Per-waiter results: bit-identical to the single-source reference,
	// and every waiter holds a private copy (no aliasing between the
	// duplicates of a lane).
	ref := emogi.NewSystem(emogi.V100PCIe3(testScale))
	dg, err := ref.Load(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Unload(dg)
	for src := 0; src < distinct; src++ {
		want, err := ref.Do(context.Background(), emogi.Request{
			Graph: dg, Algo: "bfs", Src: src, Variant: emogi.MergedAligned, Cold: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var mine []*emogi.Result
		for i := src; i < requests; i += distinct {
			mine = append(mine, results[i])
		}
		for wi, res := range mine {
			if !laneEqual(res, want) {
				t.Errorf("src=%d waiter %d: batched result diverged from direct System.Do", src, wi)
			}
			if batches == 1 && res.BatchSize != distinct {
				t.Errorf("src=%d waiter %d: BatchSize = %d, want %d", src, wi, res.BatchSize, distinct)
			}
			for wj := wi + 1; wj < len(mine); wj++ {
				if res == mine[wj] || &res.Values[0] == &mine[wj].Values[0] {
					t.Fatalf("src=%d: waiters %d and %d share a Result", src, wi, wj)
				}
			}
		}
	}

	// Cache fills: a second wave of the 16 distinct requests is answered
	// from the cache without touching the device.
	before := sys.Device().Total()
	for src := 0; src < distinct; src++ {
		res, err := svc.Do(context.Background(), Request{
			Dataset: "GK", Algo: "bfs", Src: src, Variant: emogi.MergedAligned,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !laneEqual(res, results[src]) {
			t.Errorf("src=%d: cached result diverged from the batched one", src)
		}
	}
	if sys.Device().Total() != before {
		t.Errorf("cache wave ran work on the device")
	}
	if got := svc.met.cacheHits.Value(); got != distinct {
		t.Errorf("cache hits after repeat wave = %d, want %d", got, distinct)
	}

	// Arena hygiene: the batch's lane-major buffers were all freed.
	if got := sys.Device().Arena().GPUUsed(); got != arenaUsed {
		t.Errorf("arena GPU bytes = %d after batches, want %d (leak)", got, arenaUsed)
	}
}

// TestServiceBatchLaneCancel: a waiter whose context is already canceled
// detaches only its own lane mid-batch — the other lanes complete, are
// cached, and the canceled lane is not.
func TestServiceBatchLaneCancel(t *testing.T) {
	svc, sys := newTestService(t, Config{
		Concurrency: 1,
		QueueDepth:  4,
		BatchWindow: 150 * time.Millisecond,
		BatchMax:    8,
	})
	defer svc.Close()
	arenaUsed := sys.Device().Arena().GPUUsed()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const lanes = 4
	const victim = lanes - 1
	results := make([]*emogi.Result, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		ctx := context.Background()
		if i == victim {
			ctx = canceled
		}
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			results[i], errs[i] = svc.Do(ctx, Request{Dataset: "GK", Algo: "bfs", Src: i})
		}(i, ctx)
	}
	wg.Wait()

	if !errors.Is(errs[victim], emogi.ErrCanceled) {
		t.Fatalf("victim: err = %v, want ErrCanceled", errs[victim])
	}
	var ce *emogi.CanceledError
	if !errors.As(errs[victim], &ce) {
		t.Fatalf("victim: err = %v, want *CanceledError", errs[victim])
	} else if ce.Rounds != 0 {
		t.Errorf("victim: detached after %d round(s), want 0", ce.Rounds)
	}

	ref := emogi.NewSystem(emogi.V100PCIe3(testScale))
	dg, err := ref.Load(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Unload(dg)
	for i := 0; i < victim; i++ {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		want, err := ref.Do(context.Background(), emogi.Request{
			Graph: dg, Algo: "bfs", Src: i, Cold: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !laneEqual(results[i], want) {
			t.Errorf("lane %d: result diverged after a batchmate canceled", i)
		}
	}

	// Clean lanes were cached; the canceled lane was not.
	misses := svc.met.cacheMiss.Value()
	before := sys.Device().Total()
	for i := 0; i < victim; i++ {
		if _, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: i}); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Device().Total() != before {
		t.Errorf("repeating completed lanes ran work on the device, want cache hits")
	}
	if got := svc.met.cacheMiss.Value(); got != misses {
		t.Errorf("repeating completed lanes missed the cache %d times", got-misses)
	}
	res, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: victim})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.met.cacheMiss.Value(); got != misses+1 {
		t.Error("canceled lane was served from the cache; incomplete results must never be cached")
	}
	want, err := ref.Do(context.Background(), emogi.Request{Graph: dg, Algo: "bfs", Src: victim, Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	if !laneEqual(res, want) {
		t.Errorf("victim rerun diverged from the reference")
	}

	if got := sys.Device().Arena().GPUUsed(); got != arenaUsed {
		t.Errorf("arena GPU bytes = %d after canceled lane, want %d (leak)", got, arenaUsed)
	}
}

// TestServiceBatchFaultEquivalence: coalesced batches ride the same
// retry / backoff / UVM-degradation ladder as single requests. Under the
// flaky-link profile every concurrent request must still complete with
// values bit-identical to a fault-free run, and the exported fault
// counters must match the injector's tallies exactly.
func TestServiceBatchFaultEquivalence(t *testing.T) {
	inj := flakyLink(t)
	svc, _ := newFaultyService(t, inj, Config{
		Concurrency:  2,
		QueueDepth:   8,
		CacheEntries: -1,
		BatchWindow:  150 * time.Millisecond,
		BatchMax:     32,
	})
	defer svc.Close()

	const requests = 16
	algos := []string{"bfs", "sssp", "sswp"}
	results := make([]*emogi.Result, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Do(context.Background(), Request{
				Dataset: "GK", Algo: algos[i%len(algos)], Src: i, Variant: emogi.MergedAligned,
			})
		}(i)
	}
	wg.Wait()

	g := testGraph(t)
	ref := emogi.NewSystem(emogi.V100PCIe3(testScale))
	dg, err := ref.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Unload(dg)
	degradedRuns := 0
	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			t.Errorf("request %d: failed despite retry+degradation: %v", i, errs[i])
			continue
		}
		if results[i].Degraded {
			degradedRuns++
		}
		if err := emogi.Validate(g, results[i]); err != nil {
			t.Errorf("request %d: wrong traversal output: %v", i, err)
		}
		want, err := ref.Do(context.Background(), emogi.Request{
			Graph: dg, Algo: algos[i%len(algos)], Src: i, Variant: emogi.MergedAligned, Cold: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !laneEqual(results[i], want) {
			t.Errorf("request %d (degraded=%v): batched result diverged from fault-free reference",
				i, results[i].Degraded)
		}
	}

	counts := inj.Counts()
	if got := svc.met.faults[faultKindRead].Value(); got != counts.ReadFaults {
		t.Errorf("emogi_faults_injected_total{kind=read} = %d, injector counted %d", got, counts.ReadFaults)
	}
	if got := svc.met.faults[faultKindSpike].Value(); got != counts.Spikes {
		t.Errorf("emogi_faults_injected_total{kind=spike} = %d, injector counted %d", got, counts.Spikes)
	}
	if got := svc.met.degraded.Value(); got != uint64(degradedRuns) {
		t.Errorf("emogi_degraded_runs_total = %d, results report %d degraded runs", got, degradedRuns)
	}
	t.Logf("readFaults=%d retries=%d degraded=%d/%d",
		counts.ReadFaults, svc.met.retries.Value(), degradedRuns, requests)
}

// TestServiceBatchDegradedNotCached is the regression test for the
// degraded-lane cache rule: a batch that fell back to the UVM transport
// delivers Degraded results, and none of its lanes may be cached — the
// cache key names the zero-copy transport the lanes did not run on.
func TestServiceBatchDegradedNotCached(t *testing.T) {
	inj, err := fault.New(fault.Config{Seed: 5, ReadFaultRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newFaultyService(t, inj, Config{
		Concurrency:   1,
		QueueDepth:    4,
		BatchWindow:   150 * time.Millisecond,
		BatchMax:      8,
		RetryAttempts: 8,
		DegradeAfter:  2,
	})
	defer svc.Close()

	const lanes = 2
	results := make([]*emogi.Result, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: i})
		}(i)
	}
	wg.Wait()
	for i := 0; i < lanes; i++ {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if !results[i].Degraded {
			t.Fatalf("lane %d: not Degraded under a 5%% zero-copy fault rate with DegradeAfter=2", i)
		}
	}
	if got := svc.met.degraded.Value(); got != lanes {
		t.Errorf("emogi_degraded_runs_total = %d, want %d", got, lanes)
	}

	// Degraded lanes must not have been cached: the repeats miss and run
	// again (degrading again — the link is still flaky).
	misses := svc.met.cacheMiss.Value()
	hits := svc.met.cacheHits.Value()
	for i := 0; i < lanes; i++ {
		res, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: i})
		if err != nil {
			t.Fatalf("lane %d repeat: %v", i, err)
		}
		if !laneEqual(res, results[i]) {
			t.Errorf("lane %d repeat: values diverged", i)
		}
	}
	if got := svc.met.cacheMiss.Value(); got != misses+lanes {
		t.Errorf("cache misses after repeats = %d, want %d: degraded results must never be cached",
			got, misses+lanes)
	}
	if got := svc.met.cacheHits.Value(); got != hits {
		t.Errorf("cache hits after repeats = %d, want %d: degraded results must never be cached",
			got, hits)
	}
}
