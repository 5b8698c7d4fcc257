package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	emogi "repro"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// pipelineRecord is the part of a flight-recorder record the pipeline
// matrix pins: stage names with attempt numbers ("execute/2"), in
// recording order, plus the recovery and batching fields.
type pipelineRecord struct {
	stages   string
	retries  int
	faults   uint64
	degraded bool
	batched  bool
	lanes    int
}

func pinRecord(r telemetry.RequestRecord) pipelineRecord {
	names := make([]string, len(r.Stages))
	for i, sp := range r.Stages {
		names[i] = sp.Stage
		if sp.Attempt != 0 {
			names[i] = fmt.Sprintf("%s/%d", sp.Stage, sp.Attempt)
		}
	}
	return pipelineRecord{
		stages:   strings.Join(names, " "),
		retries:  r.Retries,
		faults:   r.FaultsSurvived,
		degraded: r.Degraded,
		batched:  r.Batched,
		lanes:    r.BatchLanes,
	}
}

// pipelineCounters snapshots the service series one request moves.
type pipelineCounters struct {
	stage                                  map[string]uint64
	retries, degraded, batchedRuns, widths uint64
}

func readPipelineCounters(s *Service) pipelineCounters {
	c := pipelineCounters{
		stage:       map[string]uint64{},
		retries:     s.met.retries.Value(),
		degraded:    s.met.degraded.Value(),
		batchedRuns: s.met.batchedRuns.Value(),
		widths:      s.met.batchSize.Count(),
	}
	for _, st := range telemetry.Stages() {
		c.stage[st] = s.met.stage[st].Count()
	}
	return c
}

// TestServicePipelineMatrix pins the service's request pipeline end to
// end over BatchWindow {0, 40ms} x algo {bfs (batchable), cc (not)} x
// faults {none, flaky link}. Each case sends two requests in sequence to
// a fresh service. A bfs request under a window runs as a lone coalesced
// batch through DoBatch; every other request runs alone through Do. For
// each request the test checks the flight-recorder record (stages with
// attempts, retries, absorbed faults, degradation, batching), the result
// against a direct System.Do on a fault-free system, and the per-request
// movement of the stage, retry, degraded and batching series.
func TestServicePipelineMatrix(t *testing.T) {
	const (
		clean    = "admission queue execute/1"
		cleanBat = "admission coalesce queue execute/1"
		// DegradeAfter's default of 3: three faulted zero-copy attempts,
		// then the fourth runs on static-uvm.
		ladder   = " execute/1 backoff/2 execute/2 backoff/3 execute/3 degrade/3 backoff/4 execute/4"
		flaky    = "admission queue" + ladder
		flakyBat = "admission coalesce queue" + ladder
	)
	// The flaky-link schedule is a pure function of the seed and the run
	// sequence, so its retries and absorbed faults are exact.
	cases := []struct {
		name   string
		window time.Duration
		algo   string
		flaky  bool
		want   [2]pipelineRecord
	}{
		{"solo/bfs/clean", 0, "bfs", false, [2]pipelineRecord{
			{stages: clean}, {stages: clean}}},
		{"solo/cc/clean", 0, "cc", false, [2]pipelineRecord{
			{stages: clean}, {stages: clean}}},
		{"window/bfs/clean", 40 * time.Millisecond, "bfs", false, [2]pipelineRecord{
			{stages: cleanBat, batched: true, lanes: 1}, {stages: cleanBat, batched: true, lanes: 1}}},
		{"window/cc/clean", 40 * time.Millisecond, "cc", false, [2]pipelineRecord{
			{stages: clean}, {stages: clean}}},
		{"solo/bfs/flaky", 0, "bfs", true, [2]pipelineRecord{
			{stages: flaky, retries: 3, faults: 32, degraded: true},
			{stages: flaky, retries: 3, faults: 60, degraded: true}}},
		{"solo/cc/flaky", 0, "cc", true, [2]pipelineRecord{
			{stages: flaky, retries: 3, faults: 150, degraded: true},
			{stages: flaky, retries: 3, faults: 207, degraded: true}}},
		{"window/bfs/flaky", 40 * time.Millisecond, "bfs", true, [2]pipelineRecord{
			{stages: flakyBat, retries: 3, faults: 32, degraded: true, batched: true, lanes: 1},
			{stages: flakyBat, retries: 3, faults: 60, degraded: true, batched: true, lanes: 1}}},
		{"window/cc/flaky", 40 * time.Millisecond, "cc", true, [2]pipelineRecord{
			{stages: flaky, retries: 3, faults: 150, degraded: true},
			{stages: flaky, retries: 3, faults: 207, degraded: true}}},
	}

	g := testGraph(t)
	ref := emogi.NewSystem(emogi.V100PCIe3(testScale))
	dg, err := ref.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Unload(dg)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inj fault.Injector
			if tc.flaky {
				inj = flakyLink(t)
			}
			svc, rec, _, _ := lifecycleService(t, inj, Config{
				Concurrency:  1,
				CacheEntries: -1,
				BatchWindow:  tc.window,
				BatchMax:     8,
			})
			defer svc.Close()

			for i, src := range []int{3, 5} {
				before := readPipelineCounters(svc)
				res, err := svc.Do(context.Background(), Request{
					Dataset: "GK", Algo: tc.algo, Src: src, Variant: emogi.MergedAligned,
				})
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				after := readPipelineCounters(svc)
				r := rec.Snapshot()[0]
				got := pinRecord(r)
				if got != tc.want[i] {
					t.Errorf("request %d record\n got %+v\nwant %+v", i, got, tc.want[i])
				}
				if r.Outcome != outcomeOK || res.Degraded != r.Degraded {
					t.Errorf("request %d: outcome %q, result degraded %v, record degraded %v",
						i, r.Outcome, res.Degraded, r.Degraded)
				}

				// Values match a direct run under the policy the request
				// ended on; a request that ran alone matches its time too.
				refReq := emogi.Request{
					Graph: dg, Algo: tc.algo, Src: src, Variant: emogi.MergedAligned, Cold: true,
				}
				if res.Degraded {
					refReq.Policy = emogi.StaticPolicy(emogi.UVM)
				}
				want, err := ref.Do(context.Background(), refReq)
				if err != nil {
					t.Fatal(err)
				}
				if !laneEqual(res, want) {
					t.Errorf("request %d: values diverged from a direct System.Do", i)
				}
				if !r.Batched && res.Elapsed != want.Elapsed {
					t.Errorf("request %d: Elapsed %v, direct System.Do %v", i, res.Elapsed, want.Elapsed)
				}

				// Series movement: one histogram observation per recorded
				// span, and the recovery and batching counters agree with
				// the record.
				for _, st := range telemetry.Stages() {
					n, _ := stageSum(r, st)
					if d := after.stage[st] - before.stage[st]; d != uint64(n) {
						t.Errorf("request %d: stage %s histogram moved %d, record has %d spans", i, st, d, n)
					}
				}
				one := func(b bool) uint64 {
					if b {
						return 1
					}
					return 0
				}
				for _, c := range []struct {
					series    string
					got, want uint64
				}{
					{"emogi_retries_total", after.retries - before.retries, uint64(r.Retries)},
					{"emogi_degraded_runs_total", after.degraded - before.degraded, one(r.Degraded)},
					{"emogi_batched_runs_total", after.batchedRuns - before.batchedRuns, one(r.Batched)},
					{"emogi_batch_size count", after.widths - before.widths, one(r.Batched)},
				} {
					if c.got != c.want {
						t.Errorf("request %d: %s moved %d, want %d", i, c.series, c.got, c.want)
					}
				}
			}
		})
	}
}
