package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	emogi "repro"
)

const testScale = 0.02

func testGraph(t *testing.T) *emogi.Graph {
	t.Helper()
	g, err := emogi.BuildDataset("GK", testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestService(t *testing.T, cfg Config) (*Service, *emogi.System) {
	t.Helper()
	sys := emogi.NewSystem(emogi.V100PCIe3(testScale))
	svc := New(sys, cfg)
	if err := svc.AddGraph("GK", testGraph(t)); err != nil {
		t.Fatal(err)
	}
	return svc, sys
}

// normalize clears the KernelStats fields that are not bit-stable
// per-run deltas: the float second accumulators (WireSeconds, TagSeconds,
// UVMSerialSeconds) are deltas of cumulative float64 sums, whose low
// ulps depend on the accumulated base. The float fields are checked
// separately with a relative tolerance (closeSeconds).
func normalize(res *emogi.Result) emogi.Result {
	cp := *res
	cp.Stats.WireSeconds = 0
	cp.Stats.TagSeconds = 0
	cp.Stats.UVMSerialSeconds = 0
	return cp
}

// closeSeconds reports whether two float second counters agree to within
// float64 subtraction noise.
func closeSeconds(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > scale {
		scale = b
	}
	return diff <= 1e-9*scale+1e-15
}

// TestServiceStress is the concurrency acceptance test: 32 concurrent
// requests against a service with 4 workers and an 8-deep queue while
// the device is frozen, so admission capacity (4 in-worker + 8 queued =
// 12) is exact. Admitted requests must produce results identical to a
// direct System.Do; overflow must be rejected with ErrOverloaded; a
// follow-up wave of canceled requests must come back with the typed
// cancellation error without running a single round. Run under -race.
func TestServiceStress(t *testing.T) {
	svc, sys := newTestService(t, Config{
		Concurrency:  4,
		QueueDepth:   8,
		CacheEntries: -1, // determinism of counts: no cache short-circuits
	})
	defer svc.Close()

	// Freeze the device: workers admit tasks but block inside System.Do
	// until released, making the 12-slot capacity bound exact.
	release := make(chan struct{})
	blockerHeld := make(chan struct{})
	go sys.Device().Exclusive(func() {
		close(blockerHeld)
		<-release
	})
	<-blockerHeld

	const requests = 32
	algos := []string{"bfs", "sssp", "cc", "sswp"}
	type outcome struct {
		req Request
		res *emogi.Result
		err error
	}
	results := make([]outcome, requests)
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		req := Request{
			Dataset: "GK",
			Algo:    algos[i%len(algos)],
			Src:     i, // distinct sources: every request is distinct work
			Variant: emogi.MergedAligned,
		}
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			res, err := svc.Do(context.Background(), req)
			results[i] = outcome{req: req, res: res, err: err}
			if errors.Is(err, ErrOverloaded) {
				rejected.Add(1)
			}
		}(i, req)
	}

	// Rejections return immediately; admitted callers block. Capacity is
	// hard-bounded at 12 while the device is frozen, so at least 20 of
	// the 32 must eventually be shed.
	deadline := time.Now().Add(10 * time.Second)
	for rejected.Load() < requests-12 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d rejections after 10s, want >= %d", rejected.Load(), requests-12)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var ok, shed int
	for _, o := range results {
		switch {
		case o.err == nil:
			ok++
		case errors.Is(o.err, ErrOverloaded):
			shed++
		default:
			t.Errorf("%s/src=%d: unexpected error %v", o.req.Algo, o.req.Src, o.err)
		}
	}
	if ok+shed != requests {
		t.Fatalf("ok=%d shed=%d, want them to cover all %d requests", ok, shed, requests)
	}
	if ok < 8 || ok > 12 {
		t.Errorf("admitted = %d, want between 8 (queue alone) and 12 (queue + workers)", ok)
	}
	t.Logf("admitted=%d rejected=%d", ok, shed)

	// Equivalence: every admitted result must be bit-identical to the
	// same request run directly on a fresh system.
	ref := emogi.NewSystem(emogi.V100PCIe3(testScale))
	dg, err := ref.Load(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Unload(dg)
	for _, o := range results {
		if o.err != nil {
			continue
		}
		want, err := ref.Do(context.Background(), emogi.Request{
			Graph: dg, Algo: o.req.Algo, Src: o.req.Src, Variant: o.req.Variant, Cold: true,
		})
		if err != nil {
			t.Fatalf("reference %s/src=%d: %v", o.req.Algo, o.req.Src, err)
		}
		if got, wantN := normalize(o.res), normalize(want); !reflect.DeepEqual(got, wantN) {
			t.Errorf("%s/src=%d: service result diverged from direct System.Do\n got %+v\nwant %+v",
				o.req.Algo, o.req.Src, got, wantN)
		}
		if !closeSeconds(o.res.Stats.WireSeconds, want.Stats.WireSeconds) ||
			!closeSeconds(o.res.Stats.TagSeconds, want.Stats.TagSeconds) ||
			!closeSeconds(o.res.Stats.UVMSerialSeconds, want.Stats.UVMSerialSeconds) {
			t.Errorf("%s/src=%d: float second counters diverged beyond tolerance: got %v/%v/%v want %v/%v/%v",
				o.req.Algo, o.req.Src,
				o.res.Stats.WireSeconds, o.res.Stats.TagSeconds, o.res.Stats.UVMSerialSeconds,
				want.Stats.WireSeconds, want.Stats.TagSeconds, want.Stats.UVMSerialSeconds)
		}
	}

	// Cancellation wave: 8 concurrent pre-canceled requests (within the
	// now-idle capacity, so all admit) must each come back with the typed
	// error having executed zero rounds.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var cwg sync.WaitGroup
	cancelErrs := make([]error, 8)
	for i := 0; i < 8; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			_, err := svc.Do(canceled, Request{Dataset: "GK", Algo: "bfs", Src: i})
			cancelErrs[i] = err
		}(i)
	}
	cwg.Wait()
	for i, err := range cancelErrs {
		if !errors.Is(err, emogi.ErrCanceled) {
			t.Errorf("canceled request %d: err = %v, want ErrCanceled", i, err)
			continue
		}
		var ce *emogi.CanceledError
		if !errors.As(err, &ce) {
			t.Errorf("canceled request %d: err = %v, want *CanceledError", i, err)
		} else if ce.Rounds != 0 {
			t.Errorf("canceled request %d: ran %d round(s), want 0", i, ce.Rounds)
		}
	}
}

// TestServiceCache: repeating a request serves the cached Result without
// touching the device; normalized-equivalent requests share the entry.
func TestServiceCache(t *testing.T) {
	svc, sys := newTestService(t, Config{Concurrency: 1})
	defer svc.Close()

	first, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Device().Total()
	again, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 5})
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Errorf("cache hit shared the stored *Result; want a defensive copy")
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("cached Result differs from the original")
	}
	if sys.Device().Total() != before {
		t.Errorf("cache hit ran work on the device")
	}
	// The copies must be independent: mutating one caller's response must
	// not leak into what the next hit sees.
	if len(again.Values) > 0 {
		again.Values[0] = 0xDEAD
	}
	third, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, first) {
		t.Errorf("mutating a returned Result corrupted the cached entry")
	}

	// cc is source-free: any src maps onto the same normalized key.
	if _, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "cc", Src: 1}); err != nil {
		t.Fatal(err)
	}
	before = sys.Device().Total()
	if _, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "cc", Src: 99}); err != nil {
		t.Fatal(err)
	}
	if sys.Device().Total() != before {
		t.Errorf("source-free cache key missed: cc with a different src re-ran")
	}
	if n := svc.cache.len(); n != 2 {
		t.Errorf("cache holds %d entries, want 2 (bfs + normalized cc)", n)
	}
}

// TestServiceCacheLRU: the cache evicts least-recently-used entries at
// capacity.
func TestServiceCacheLRU(t *testing.T) {
	c, err := newResultCache(2)
	if err != nil {
		t.Fatal(err)
	}
	r := &emogi.Result{}
	c.put(cacheKey{dataset: "a"}, r)
	c.put(cacheKey{dataset: "b"}, r)
	if _, ok := c.get(cacheKey{dataset: "a"}); !ok { // refresh a
		t.Fatal("entry a missing")
	}
	c.put(cacheKey{dataset: "c"}, r) // evicts b
	if _, ok := c.get(cacheKey{dataset: "b"}); ok {
		t.Error("b survived eviction, want LRU out")
	}
	if _, ok := c.get(cacheKey{dataset: "a"}); !ok {
		t.Error("a was evicted despite being recently used")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestServiceClose: drain-then-stop semantics and idempotence.
func TestServiceClose(t *testing.T) {
	svc, sys := newTestService(t, Config{Concurrency: 2})

	if _, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 1}); err != nil {
		t.Fatal(err)
	}
	used := sys.Device().Arena().GPUUsed()
	if used == 0 {
		t.Fatal("expected the loaded graph to occupy GPU memory")
	}
	svc.Close()
	svc.Close() // idempotent

	if _, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 1}); !errors.Is(err, ErrStopped) {
		t.Errorf("Do after Close: err = %v, want ErrStopped", err)
	}
	if err := svc.AddGraph("GK2", testGraph(t)); !errors.Is(err, ErrStopped) {
		t.Errorf("AddGraph after Close: err = %v, want ErrStopped", err)
	}
	if got := sys.Device().Arena().GPUUsed(); got != 0 {
		t.Errorf("GPU arena after Close = %d bytes, want 0 (graphs unloaded)", got)
	}
	if len(svc.Datasets()) != 0 {
		t.Errorf("Datasets after Close = %v, want none", svc.Datasets())
	}
}

// TestServiceCloseDrains: requests admitted before Close complete.
func TestServiceCloseDrains(t *testing.T) {
	svc, sys := newTestService(t, Config{Concurrency: 1, QueueDepth: 4, CacheEntries: -1})

	release := make(chan struct{})
	held := make(chan struct{})
	go sys.Device().Exclusive(func() {
		close(held)
		<-release
	})
	<-held

	var res *emogi.Result
	var doErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, doErr = svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 2})
	}()
	// Wait until the single worker has the task in hand, then close with
	// the device still frozen: Close must block until the request drains.
	deadline := time.Now().Add(5 * time.Second)
	for svc.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the task")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { defer close(closed); svc.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	<-done
	if doErr != nil {
		t.Fatalf("drained request failed: %v", doErr)
	}
	if res == nil || res.App != "BFS" {
		t.Fatalf("drained request returned %+v", res)
	}
}

// TestServiceErrors: unknown names produce typed errors whose messages
// list the valid choices.
func TestServiceErrors(t *testing.T) {
	svc, _ := newTestService(t, Config{Concurrency: 1})
	defer svc.Close()
	if err := svc.AddGraph("GU", testGraph(t)); err != nil {
		// Second upload of the same CSR is fine; only the name must differ.
		t.Fatal(err)
	}

	_, err := svc.Do(context.Background(), Request{Dataset: "nope", Algo: "bfs"})
	var ud *UnknownDatasetError
	if !errors.As(err, &ud) {
		t.Fatalf("err = %v, want *UnknownDatasetError", err)
	}
	for _, name := range []string{"GK", "GU"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("dataset error %q does not list %q", err.Error(), name)
		}
	}

	_, err = svc.Do(context.Background(), Request{Dataset: "GK", Algo: "dfs"})
	var ua *emogi.UnknownAlgorithmError
	if !errors.As(err, &ua) {
		t.Fatalf("err = %v, want *UnknownAlgorithmError", err)
	}
	if !strings.Contains(err.Error(), "bfs") || !strings.Contains(err.Error(), "sssp") {
		t.Errorf("algorithm error %q does not list valid names", err.Error())
	}

	if err := svc.AddGraph("GK", testGraph(t)); err == nil {
		t.Error("duplicate AddGraph succeeded, want error")
	}
	if err := svc.AddGraph("", testGraph(t)); err == nil {
		t.Error("empty dataset name accepted, want error")
	}
}

// TestServiceMetrics: the outcome counters on the shared registry track
// what actually happened.
func TestServiceMetrics(t *testing.T) {
	svc, _ := newTestService(t, Config{Concurrency: 1})
	defer svc.Close()

	mustDo := func(req Request) {
		t.Helper()
		if _, err := svc.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	mustDo(Request{Dataset: "GK", Algo: "bfs", Src: 1})
	mustDo(Request{Dataset: "GK", Algo: "bfs", Src: 1})               // cache hit
	svc.Do(context.Background(), Request{Dataset: "GK", Algo: "dfs"}) // error

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	svc.Do(canceled, Request{Dataset: "GK", Algo: "bfs", Src: 9})

	expect := map[string]uint64{
		outcomeOK:       1,
		outcomeCached:   1,
		outcomeCanceled: 1,
		outcomeError:    1,
		outcomeRejected: 0,
	}
	for o, want := range expect {
		if got := svc.met.requests[o].Value(); got != want {
			t.Errorf("requests{outcome=%q} = %v, want %v", o, got, want)
		}
	}
	if got := svc.met.cacheHits.Value(); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}

	// The exported names appear in the Prometheus exposition.
	var sb strings.Builder
	if err := svc.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, series := range []string{
		"emogi_serve_requests_total", "emogi_serve_queue_wait_seconds",
		"emogi_serve_run_seconds", "emogi_serve_cache_hits_total",
		"emogi_serve_datasets",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}

// TestServiceDatasets: the catalog reflects loads in sorted order.
func TestServiceDatasets(t *testing.T) {
	svc, _ := newTestService(t, Config{Concurrency: 1})
	defer svc.Close()
	if err := svc.AddGraph("AA", testGraph(t), emogi.WithTransportPolicy(emogi.StaticPolicy(emogi.UVM))); err != nil {
		t.Fatal(err)
	}
	ds := svc.Datasets()
	if len(ds) != 2 || ds[0].Name != "AA" || ds[1].Name != "GK" {
		t.Fatalf("Datasets = %+v, want AA then GK", ds)
	}
	if ds[0].Transport != "uvm" || ds[1].Transport != "zerocopy" {
		t.Errorf("transports = %s, %s", ds[0].Transport, ds[1].Transport)
	}
	if ds[1].Vertices == 0 || ds[1].Edges == 0 {
		t.Errorf("GK reports empty dimensions: %+v", ds[1])
	}
}

func ExampleService() {
	sys := emogi.NewSystem(emogi.V100PCIe3(0.02))
	svc := New(sys, Config{Concurrency: 2, QueueDepth: 8})
	defer svc.Close()
	g, _ := emogi.BuildDataset("GK", 0.02, 42)
	_ = svc.AddGraph("GK", g)
	res, _ := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 3})
	fmt.Println(res.App, res.Iterations > 0)
	// Output: BFS true
}

// len returns the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
