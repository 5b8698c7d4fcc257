package service

import (
	"context"
	"time"

	emogi "repro"
	"repro/internal/telemetry"
)

// Request coalescing: when Config.BatchWindow is set, cache-missing
// requests for the same (dataset, algo, variant, transport policy) that
// arrive within the window are collected into one pending batch — a
// coalesced task (service.go) — and dispatched as a single
// System.DoBatch: one admission-queue slot, one engine run, one edge scan
// serving every lane (see internal/core/batch.go and DESIGN.md §13). The batch seals when the window elapses or when it
// reaches Config.BatchMax lanes, whichever comes first.
//
// Per-request semantics are preserved exactly:
//
//   - Each waiter gets the bit-for-bit Result an uncoalesced run would
//     return (Values/Iterations; Elapsed/Stats describe the shared run).
//   - A request's context detaches only its own lane — mid-batch
//     cancellation never aborts the other lanes or frees shared buffers
//     early; the lane just leaves the live mask at the next round
//     boundary.
//   - Duplicate sources inside one window share a lane: the lane's
//     result is delivered to every waiter (cloned, so no waiter observes
//     another's mutations), and the lane detaches only when every waiter
//     has canceled.
//   - Cache fills are per-lane on completion, with the same
//     degraded-results-are-never-cached rule as single runs: a batch
//     that fell back to UVM caches nothing, and a mixed batch (some
//     lanes canceled) caches only the lanes that completed cleanly.

// batchKey groups coalescable requests. Sources are intentionally
// absent: differing sources are the point of batching. The algo name and
// variant are the cache-normalized ones, and policy is the effective
// transport-policy name, so requests that would share a cache entry also
// share a lane (and requests under different policies never coalesce).
type batchKey struct {
	dataset string
	algo    string
	variant emogi.Variant
	policy  string
}

// coalesce joins (or opens) the pending batch for the request's key;
// the batch delivers to w once it has run. Callers have already missed
// the cache and validated the dataset and algorithm.
func (s *Service) coalesce(w *waiter, dg *emogi.DeviceGraph, pol emogi.TransportPolicy, key cacheKey) {
	w.joined = time.Now()
	bkey := batchKey{dataset: key.dataset, algo: key.algo, variant: key.variant, policy: key.policy}
	s.bmu.Lock()
	t := s.pending[bkey]
	if t == nil {
		t = &task{
			base:      emogi.Request{Graph: dg, Algo: key.algo, Variant: key.variant, Cold: true, Policy: pol},
			coalesced: true,
			key:       bkey,
			bySrc:     make(map[int]*lane),
			// The batch collects its shared lifecycle spans (queue,
			// backoff, execute, degrade) and round events on its own
			// trace; runTask replays them into every waiter's.
			trace: telemetry.NewRequestTrace(telemetry.NewTraceID()),
		}
		s.pending[bkey] = t
		// The window timer seals the batch with whatever joined by then.
		t.timer = time.AfterFunc(s.cfg.BatchWindow, func() { s.sealBatch(t) })
	}
	ln := t.bySrc[key.src]
	if ln == nil {
		ln = &lane{src: key.src, key: key}
		t.bySrc[key.src] = ln
		t.lanes = append(t.lanes, ln)
	}
	ln.waiters = append(ln.waiters, w)
	// A full batch seals immediately instead of waiting out the window.
	sealNow := !t.sealed && len(t.lanes) >= s.cfg.BatchMax
	if sealNow {
		t.sealed = true
		delete(s.pending, bkey)
	}
	s.bmu.Unlock()
	if sealNow {
		t.timer.Stop()
		s.dispatch(t)
	}
}

// sealBatch is the window-timer path: mark the batch sealed, detach it
// from the pending map, and dispatch it. A batch already sealed (by
// reaching BatchMax, or by Close) is someone else's to dispatch.
func (s *Service) sealBatch(t *task) {
	s.bmu.Lock()
	if t.sealed {
		s.bmu.Unlock()
		return
	}
	t.sealed = true
	delete(s.pending, t.key)
	s.bmu.Unlock()
	s.dispatch(t)
}

// replayer returns the function that copies a coalesced task's shared
// lifecycle spans and round events into one waiter's trace, preceded by
// the waiter's own coalesce span (joined -> dispatch), so each request's
// record reads like it ran alone. A task that was not coalesced recorded
// straight onto its waiter's trace and has nothing to replay.
func (t *task) replayer() func(*waiter) {
	if !t.coalesced {
		return func(*waiter) {}
	}
	spans := t.trace.Spans()
	rounds, totalRounds := t.trace.Rounds()
	return func(w *waiter) {
		wb := w.trace.Begin()
		w.trace.ObserveSpan(telemetry.Span{
			Stage:   telemetry.StageCoalesce,
			StartNS: w.joined.Sub(wb).Nanoseconds(),
			DurNS:   t.enqueued.Sub(w.joined).Nanoseconds(),
		})
		// Shared spans are recorded relative to the batch trace's begin;
		// rebase them onto this waiter's clock.
		off := t.trace.Begin().Sub(wb).Nanoseconds()
		for _, sp := range spans {
			sp.StartNS += off
			w.trace.ObserveSpan(sp)
		}
		w.trace.ReplayRounds(rounds, totalRounds)
	}
}

// laneContext merges a lane's waiters into the context the engine
// watches: one waiter passes its context through; duplicates yield a
// context done only when every waiter's is — one surviving requester
// keeps the lane running. The watcher goroutine exits with the task
// through stop.
func laneContext(waiters []*waiter, stop <-chan struct{}) context.Context {
	if len(waiters) == 1 {
		return waiters[0].ctx
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for _, w := range waiters {
			select {
			case <-w.ctx.Done():
			case <-stop:
				return
			}
		}
		cancel()
	}()
	return ctx
}
