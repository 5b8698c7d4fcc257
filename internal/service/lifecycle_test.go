package service

import (
	"context"
	"sync"
	"testing"
	"time"

	emogi "repro"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// lifecycleService builds a fully instrumented service: registry-backed
// metrics, a collector on the device (so engine rounds flow into request
// traces), flight recorder, health, and a Chrome tracer.
func lifecycleService(t *testing.T, inj fault.Injector, cfg Config) (*Service, *telemetry.Recorder, *telemetry.Health, *telemetry.Tracer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	syscfg := emogi.V100PCIe3(testScale)
	syscfg.Faults = inj
	syscfg.Telemetry = telemetry.NewCollector(reg, nil)
	sys := emogi.NewSystem(syscfg)

	rec := telemetry.NewRecorder(64)
	health := telemetry.NewHealth(reg)
	cfg.Metrics = reg
	cfg.Recorder = rec
	cfg.Health = health
	cfg.Tracer = tracer
	svc := New(sys, cfg)
	if err := svc.AddGraph("GK", testGraph(t)); err != nil {
		t.Fatal(err)
	}
	return svc, rec, health, tracer
}

// stageSum adds up a record's span durations for one stage; attempt < 0
// sums every attempt.
func stageSum(rec telemetry.RequestRecord, stage string) (n int, durNS int64) {
	for _, sp := range rec.Stages {
		if sp.Stage == stage {
			n++
			durNS += sp.DurNS
		}
	}
	return n, durNS
}

// TestRequestLifecycleTrace is the tentpole acceptance test for a clean
// request: the caller's trace ID survives into the flight recorder, the
// stage spans sum to the request's wall time (up to scheduler handoff
// slop), engine rounds are attributed to the request, the per-stage
// histograms count the request exactly once, and the tracer gained a
// request track.
func TestRequestLifecycleTrace(t *testing.T) {
	svc, rec, _, tracer := lifecycleService(t, nil, Config{Concurrency: 1, CacheEntries: -1})
	defer svc.Close()

	const id = "lifecycle-trace-1"
	res, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 1, TraceID: id})
	if err != nil {
		t.Fatal(err)
	}

	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("recorder holds %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.TraceID != id {
		t.Errorf("TraceID = %q, want %q", r.TraceID, id)
	}
	if r.Outcome != outcomeOK || r.Error != "" {
		t.Errorf("outcome = %q (err %q), want ok", r.Outcome, r.Error)
	}
	if r.SimElapsedNS != res.Elapsed.Nanoseconds() {
		t.Errorf("SimElapsedNS = %d, want %d", r.SimElapsedNS, res.Elapsed.Nanoseconds())
	}

	// Exactly one admission, queue, and execute span; no recovery stages.
	for stage, want := range map[string]int{
		telemetry.StageAdmission: 1,
		telemetry.StageQueue:     1,
		telemetry.StageExecute:   1,
		telemetry.StageBackoff:   0,
		telemetry.StageDegrade:   0,
		telemetry.StageCoalesce:  0,
	} {
		if n, _ := stageSum(r, stage); n != want {
			t.Errorf("stage %s spans = %d, want %d (spans: %+v)", stage, n, want, r.Stages)
		}
	}

	// The stage durations account for the request's wall time up to
	// scheduler handoff slop.
	var sum int64
	for _, sp := range r.Stages {
		sum += sp.DurNS
	}
	tol := int64(25 * time.Millisecond)
	if q := r.WallNS / 4; q > tol {
		tol = q
	}
	if gap := r.WallNS - sum; gap < 0 || gap > tol {
		t.Errorf("stage durations sum to %d ns of %d ns wall (gap %d, tolerance %d): %+v",
			sum, r.WallNS, r.WallNS-sum, tol, r.Stages)
	}

	// Engine rounds were attributed to this request via the bound trace.
	if r.Rounds == 0 || len(r.RoundSpans) == 0 {
		t.Errorf("no engine rounds on the record: rounds=%d spans=%d", r.Rounds, len(r.RoundSpans))
	}
	if r.Rounds != res.Iterations {
		t.Errorf("record rounds = %d, result iterations = %d", r.Rounds, res.Iterations)
	}

	// Per-stage histograms counted the request exactly once per stage.
	for stage, want := range map[string]uint64{
		telemetry.StageAdmission: 1,
		telemetry.StageQueue:     1,
		telemetry.StageExecute:   1,
		telemetry.StageBackoff:   0,
	} {
		if got := svc.met.stage[stage].Count(); got != want {
			t.Errorf("stage %s histogram count = %d, want %d", stage, got, want)
		}
	}

	// The tracer gained the request's track.
	if tracer.Len() == 0 {
		t.Error("tracer recorded no events for the request")
	}

	// A second identical request answers from... nothing: cache disabled.
	// Re-enable by using the same source; with CacheEntries: -1 each run
	// hits the device, so the histograms advance.
	if _, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 1}); err != nil {
		t.Fatal(err)
	}
	if got := svc.met.stage[telemetry.StageExecute].Count(); got != 2 {
		t.Errorf("execute histogram count after second request = %d, want 2", got)
	}
	if len(rec.Snapshot()) != 2 {
		t.Errorf("recorder holds %d records, want 2", len(rec.Snapshot()))
	}
	// The generated trace ID is non-empty even when the caller sent none.
	if got := rec.Snapshot()[0].TraceID; got == "" {
		t.Error("generated trace ID is empty")
	}
}

// TestRequestLifecycleCached: a cache hit records an admission-only trace
// under the cached outcome and touches no execution histograms.
func TestRequestLifecycleCached(t *testing.T) {
	svc, rec, _, _ := lifecycleService(t, nil, Config{Concurrency: 1, CacheEntries: 8})
	defer svc.Close()

	req := Request{Dataset: "GK", Algo: "bfs", Src: 2}
	if _, err := svc.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	recs := rec.Snapshot() // newest first: the cache hit
	if len(recs) != 2 {
		t.Fatalf("recorder holds %d records, want 2", len(recs))
	}
	hit := recs[0]
	if hit.Outcome != outcomeCached {
		t.Fatalf("second request outcome = %q, want cached", hit.Outcome)
	}
	if n, _ := stageSum(hit, telemetry.StageAdmission); n != 1 || len(hit.Stages) != 1 {
		t.Errorf("cache hit stages = %+v, want a single admission span", hit.Stages)
	}
	if hit.Rounds != 0 || hit.SimElapsedNS == 0 {
		// Cached answers carry the cached result's simulated time but ran
		// no rounds of their own.
		t.Errorf("cache hit rounds=%d sim=%d, want 0 rounds with the cached result's sim time",
			hit.Rounds, hit.SimElapsedNS)
	}
	if got := svc.met.stage[telemetry.StageExecute].Count(); got != 1 {
		t.Errorf("execute histogram count = %d, want 1 (the miss only)", got)
	}
	if got := svc.met.stage[telemetry.StageAdmission].Count(); got != 2 {
		t.Errorf("admission histogram count = %d, want 2", got)
	}
}

// TestRequestLifecycleRetries is the recovery acceptance test: against a
// flaky link, a request that retried and degraded carries its recovery
// history — retry attempts matching the emogi_retries_total delta, backoff
// spans between attempts, the degrade span, absorbed fault counts — and
// the device health window reflects the degradation.
func TestRequestLifecycleRetries(t *testing.T) {
	inj := flakyLink(t)
	svc, rec, health, _ := lifecycleService(t, inj, Config{Concurrency: 1, CacheEntries: -1})
	defer svc.Close()

	res, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: 3, TraceID: "retry-trace"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("request did not degrade; the profile/seed no longer exercises recovery")
	}

	r := rec.Snapshot()[0]
	if !r.Degraded {
		t.Error("record not marked degraded")
	}
	retriesTotal := svc.met.retries.Value()
	if uint64(r.Retries) != retriesTotal {
		t.Errorf("record retries = %d, emogi_retries_total = %d; must agree", r.Retries, retriesTotal)
	}
	if r.Retries == 0 {
		t.Error("degraded run recorded zero retries")
	}
	if r.FaultsSurvived == 0 {
		t.Error("degraded run recorded zero absorbed faults")
	}

	execN, _ := stageSum(r, telemetry.StageExecute)
	backoffN, _ := stageSum(r, telemetry.StageBackoff)
	degradeN, _ := stageSum(r, telemetry.StageDegrade)
	if execN != r.Retries+1 {
		t.Errorf("execute spans = %d, want attempts = retries+1 = %d", execN, r.Retries+1)
	}
	if backoffN != r.Retries {
		t.Errorf("backoff spans = %d, want one per retry = %d", backoffN, r.Retries)
	}
	if degradeN != 1 {
		t.Errorf("degrade spans = %d, want 1 (the UVM fallback load)", degradeN)
	}

	// Attempt numbering: execute spans are 1-based consecutive attempts.
	attempt := 0
	for _, sp := range r.Stages {
		if sp.Stage != telemetry.StageExecute {
			continue
		}
		attempt++
		if sp.Attempt != attempt {
			t.Errorf("execute span attempt = %d, want %d", sp.Attempt, attempt)
		}
	}

	// The health window saw the degraded run.
	rep := health.Report()
	if len(rep.Devices) != 1 || rep.Devices[0].State != "degraded" {
		t.Errorf("health report = %+v, want the device degraded", rep)
	}
	if !rep.Serving {
		t.Error("degraded device stopped serving; only unhealthy should")
	}

	// Close drains: the report flips to draining/503 and stays there.
	svc.Close()
	rep = health.Report()
	if rep.Status != "draining" || rep.Serving {
		t.Errorf("post-Close report = %+v, want draining/not-serving", rep)
	}
}

// TestBatchLifecycleReplay: waiters on a coalesced batch each carry the
// batch's shared spans (rebased into their own timebase) plus their own
// coalesce span, the rounds of the shared run, and the batch metadata —
// and the per-stage histograms count once per waiter, not once per batch.
func TestBatchLifecycleReplay(t *testing.T) {
	svc, rec, _, _ := lifecycleService(t, nil, Config{
		Concurrency:  1,
		CacheEntries: -1,
		BatchWindow:  40 * time.Millisecond,
		BatchMax:     8,
	})
	defer svc.Close()

	const lanes = 3
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			if _, err := svc.Do(context.Background(), Request{Dataset: "GK", Algo: "bfs", Src: src}); err != nil {
				t.Errorf("src %d: %v", src, err)
			}
		}(i + 1)
	}
	wg.Wait()

	recs := rec.Snapshot()
	if len(recs) != lanes {
		t.Fatalf("recorder holds %d records, want %d", len(recs), lanes)
	}
	batched := 0
	for _, r := range recs {
		if !r.Batched {
			continue
		}
		batched++
		if r.BatchLanes < 1 || r.BatchLanes > lanes {
			t.Errorf("record batch lanes = %d, want 1..%d", r.BatchLanes, lanes)
		}
		if n, _ := stageSum(r, telemetry.StageCoalesce); n != 1 {
			t.Errorf("batched record has %d coalesce spans, want 1: %+v", n, r.Stages)
		}
		if n, _ := stageSum(r, telemetry.StageExecute); n != 1 {
			t.Errorf("batched record has %d execute spans, want 1: %+v", n, r.Stages)
		}
		if r.Rounds == 0 {
			t.Errorf("batched record carries no rounds")
		}
		// Replayed spans are rebased into the waiter's own timebase: no
		// span may start before the waiter's admission.
		for _, sp := range r.Stages {
			if sp.StartNS < 0 {
				t.Errorf("span %s starts %d ns before the request began", sp.Stage, sp.StartNS)
			}
		}
	}
	if batched == 0 {
		t.Fatal("no request was batched; the window never coalesced")
	}

	// Histogram counts are per waiter: every request was admitted, queued
	// (directly or via its batch), and executed exactly once.
	for _, stage := range []string{telemetry.StageAdmission, telemetry.StageQueue, telemetry.StageExecute} {
		if got := svc.met.stage[stage].Count(); got != lanes {
			t.Errorf("stage %s histogram count = %d, want %d (one per waiter)", stage, got, lanes)
		}
	}
}
