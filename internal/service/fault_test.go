package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	emogi "repro"
	"repro/internal/fault"
)

// newFaultyService builds a service over a system carrying inj on its
// PCIe link, with the GK test graph loaded.
func newFaultyService(t *testing.T, inj fault.Injector, cfg Config) (*Service, *emogi.System) {
	t.Helper()
	syscfg := emogi.V100PCIe3(testScale)
	syscfg.Faults = inj
	sys := emogi.NewSystem(syscfg)
	svc := New(sys, cfg)
	if err := svc.AddGraph("GK", testGraph(t)); err != nil {
		t.Fatal(err)
	}
	return svc, sys
}

// TestServiceFaultStress is the recovery acceptance test: 32 concurrent
// requests against a flaky-link service (1% read faults) must all
// complete — either a retried zero-copy run or a run degraded onto the
// static-uvm policy, never an error — with results bit-identical to a
// fault-free reference system under the policy they ultimately ran on
// (degraded runs replay the same static-uvm override, pinning the policy
// layer's replay determinism), and the exported fault/retry/degraded
// counters must agree exactly with the injector's own tallies. Run under
// -race.
func TestServiceFaultStress(t *testing.T) {
	inj := flakyLink(t)
	svc, _ := newFaultyService(t, inj, Config{
		Concurrency:  4,
		QueueDepth:   32, // capacity 36 > 32: every request admits
		CacheEntries: -1, // every request must exercise the retry path
	})
	defer svc.Close()

	const requests = 32
	algos := []string{"bfs", "sssp", "cc", "sswp"}
	type outcome struct {
		req Request
		res *emogi.Result
		err error
	}
	results := make([]outcome, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		req := Request{
			Dataset: "GK",
			Algo:    algos[i%len(algos)],
			Src:     i,
			Variant: emogi.MergedAligned,
		}
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			res, err := svc.Do(context.Background(), req)
			results[i] = outcome{req: req, res: res, err: err}
		}(i, req)
	}
	wg.Wait()

	// Fault-free reference system: clean runs replay on the same zero-copy
	// graph; degraded runs replay under the same static-uvm policy
	// override the service rerouted them onto.
	g := testGraph(t)
	ref := emogi.NewSystem(emogi.V100PCIe3(testScale))
	dgZC, err := ref.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Unload(dgZC)

	degradedRuns := 0
	for _, o := range results {
		if o.err != nil {
			t.Errorf("%s/src=%d: failed despite retry+degradation: %v", o.req.Algo, o.req.Src, o.err)
			continue
		}
		if err := emogi.Validate(g, o.res); err != nil {
			t.Errorf("%s/src=%d: wrong traversal output: %v", o.req.Algo, o.req.Src, err)
		}
		refReq := emogi.Request{
			Graph: dgZC, Algo: o.req.Algo, Src: o.req.Src, Variant: o.req.Variant, Cold: true,
		}
		if o.res.Degraded {
			degradedRuns++
			refReq.Policy = emogi.StaticPolicy(emogi.UVM)
		}
		want, err := ref.Do(context.Background(), refReq)
		if err != nil {
			t.Fatalf("reference %s/src=%d: %v", o.req.Algo, o.req.Src, err)
		}
		got, wantN := normalize(o.res), normalize(want)
		got.Degraded, wantN.Degraded = false, false
		if !reflect.DeepEqual(got, wantN) {
			t.Errorf("%s/src=%d (degraded=%v): result diverged from fault-free reference\n got %+v\nwant %+v",
				o.req.Algo, o.req.Src, o.res.Degraded, got, wantN)
		}
	}
	t.Logf("degraded=%d/%d", degradedRuns, requests)

	// Counter consistency: the exported series are exactly the injector's
	// tallies, retries happened, and the degraded counter matches what the
	// results report.
	counts := inj.Counts()
	if counts.ReadFaults == 0 {
		t.Fatal("flaky-link injected zero read faults across 32 requests")
	}
	if got := svc.met.faults[faultKindRead].Value(); got != counts.ReadFaults {
		t.Errorf("emogi_faults_injected_total{kind=read} = %d, injector counted %d", got, counts.ReadFaults)
	}
	if got := svc.met.faults[faultKindSpike].Value(); got != counts.Spikes {
		t.Errorf("emogi_faults_injected_total{kind=spike} = %d, injector counted %d", got, counts.Spikes)
	}
	if got := svc.met.faults[faultKindAlloc].Value(); got != counts.AllocFaults {
		t.Errorf("emogi_faults_injected_total{kind=alloc} = %d, injector counted %d", got, counts.AllocFaults)
	}
	if got := svc.met.retries.Value(); got == 0 {
		t.Error("emogi_retries_total = 0 under a 1% fault rate")
	}
	if got := svc.met.degraded.Value(); got != uint64(degradedRuns) {
		t.Errorf("emogi_degraded_runs_total = %d, results report %d degraded runs", got, degradedRuns)
	}
}

// TestServiceRetryEquivalence: under a read-fault-only injector a request
// that needed retries returns, once a clean epoch lands, a Result
// bit-for-bit identical to the same request on a fault-free system —
// including the modeled Elapsed time — and is not marked Degraded.
func TestServiceRetryEquivalence(t *testing.T) {
	inj, err := fault.New(fault.Config{Seed: 17, ReadFaultRate: 0.0003})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newFaultyService(t, inj, Config{
		Concurrency:   1,
		CacheEntries:  -1,
		RetryAttempts: 64,  // enough epochs that one comes up clean
		DegradeAfter:  100, // never degrade: this test is about clean retries
	})
	defer svc.Close()

	res, err := svc.Do(context.Background(), Request{
		Dataset: "GK", Algo: "bfs", Src: 5, Variant: emogi.MergedAligned,
	})
	if err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if res.Degraded {
		t.Fatal("result marked Degraded with degradation disabled")
	}
	if got := svc.met.retries.Value(); got == 0 {
		t.Fatal("request succeeded on the first attempt; raise the rate so the test exercises a retry")
	} else {
		t.Logf("retries=%d", got)
	}

	ref := emogi.NewSystem(emogi.V100PCIe3(testScale))
	dg, err := ref.Load(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Unload(dg)
	want, err := ref.Do(context.Background(), emogi.Request{
		Graph: dg, Algo: "bfs", Src: 5, Variant: emogi.MergedAligned, Cold: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantN := normalize(res), normalize(want); !reflect.DeepEqual(got, wantN) {
		t.Errorf("retried result diverged from fault-free run\n got %+v\nwant %+v", got, wantN)
	}
	if !closeSeconds(res.Stats.WireSeconds, want.Stats.WireSeconds) {
		t.Errorf("WireSeconds %v vs fault-free %v", res.Stats.WireSeconds, want.Stats.WireSeconds)
	}
}

// TestServiceRetryBudgetExhausted: when every attempt faults and
// degradation is out of reach, the service reports a typed transient
// error naming the budget instead of hanging or succeeding wrongly.
func TestServiceRetryBudgetExhausted(t *testing.T) {
	inj, err := fault.New(fault.Config{Seed: 5, ReadFaultRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newFaultyService(t, inj, Config{
		Concurrency:   1,
		CacheEntries:  -1,
		RetryAttempts: 2,
		DegradeAfter:  5, // beyond the budget: degradation can't trigger
	})
	defer svc.Close()

	res, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 1})
	if res != nil || err == nil {
		t.Fatalf("Do = (%v, %v), want exhaustion error", res, err)
	}
	if !errors.Is(err, emogi.ErrTransient) {
		t.Errorf("exhaustion error %v does not match emogi.ErrTransient", err)
	}
	var te *emogi.TransientError
	if !errors.As(err, &te) {
		t.Errorf("exhaustion error %v does not carry the *TransientError cause", err)
	}
	if got := svc.met.retries.Value(); got != 1 {
		t.Errorf("emogi_retries_total = %d, want 1 (budget of 2 attempts)", got)
	}
	if got := svc.met.requests[outcomeError].Value(); got != 1 {
		t.Errorf("requests{outcome=error} = %d, want 1", got)
	}
}

// TestServiceCacheConcurrentMutation: many goroutines hitting the same
// cache key each get an independent copy — mutating one caller's Result
// must neither race with other callers (-race is the oracle here) nor
// corrupt the cached entry.
func TestServiceCacheConcurrentMutation(t *testing.T) {
	svc, _ := newTestService(t, Config{Concurrency: 2})
	defer svc.Close()

	req := Request{Dataset: "GK", Algo: "bfs", Src: 5}
	first, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Do(context.Background(), req)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			// Scribble over the whole value slice: only safe if every
			// caller got its own copy.
			for j := range res.Values {
				res.Values[j] = uint32(i)
			}
		}(i)
	}
	wg.Wait()
	final, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, first) {
		t.Error("concurrent mutation of returned Results corrupted the cached entry")
	}
}

// flakyLink builds the flaky-link fault profile's injector at seed 7.
func flakyLink(t *testing.T) fault.Injector {
	t.Helper()
	cfg, err := fault.ProfileConfig(fault.ProfileFlakyLink, 7)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}
