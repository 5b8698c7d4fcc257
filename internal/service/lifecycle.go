package service

import (
	"errors"
	"time"

	emogi "repro"
	"repro/internal/telemetry"
)

// Request-lifecycle instrumentation: every request carries a
// telemetry.RequestTrace from admission to delivery, and every trace ends
// in finishRequest — the single place a completed request becomes a
// flight-recorder record, a Chrome-trace request track, a health
// observation and one emogi_request_stage_seconds observation per
// recorded span, so a stage's histogram count always equals the number of
// spans requests recorded for it.

// requestOutcome is one finished request's disposition: what a worker
// delivers to a waiter, and what finishRequest records.
type requestOutcome struct {
	// outcome is the emogi_serve_requests_total label value the request
	// was counted under (the counters are incremented where the outcome
	// is decided, not in finishRequest).
	outcome string
	res     *emogi.Result
	err     error
	// executed marks requests that ran on the device (admitted and picked
	// up by a worker); only those become health observations.
	executed bool
	// retries and faults are the recovery tallies: re-attempts after the
	// first, and injected read faults the failed attempts absorbed.
	retries int
	faults  uint64
	// batched marks requests that rode a coalesced batch of lanes width.
	batched bool
	lanes   int
}

// outcomeOf maps a delivered error to its request-counter label.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, emogi.ErrCanceled):
		return outcomeCanceled
	case errors.Is(err, ErrStopped), errors.Is(err, ErrOverloaded):
		return outcomeRejected
	default:
		return outcomeError
	}
}

// finishRequest closes out one request's trace: it folds the request's
// spans into the stage histograms, assembles the flight-recorder record,
// emits the per-request track to the Chrome tracer, and folds executed
// runs into the device health window. It is called exactly once per
// request, on the caller's goroutine, after the result is determined.
// Nil recorder / tracer / health are each inert.
func (s *Service) finishRequest(rt *telemetry.RequestTrace, req Request, ro requestOutcome) {
	wall := time.Since(rt.Begin())
	spans := rt.Spans()
	for _, sp := range spans {
		s.met.stageObserve(sp.Stage, time.Duration(sp.DurNS).Seconds())
	}
	degraded := ro.res != nil && ro.res.Degraded
	if s.cfg.Health != nil && ro.executed {
		s.cfg.Health.ObserveRun(s.devName, telemetry.RunObservation{
			TransientFailure: ro.err != nil && errors.Is(ro.err, emogi.ErrTransient),
			Degraded:         degraded,
			Faults:           ro.faults,
		})
	}
	if s.cfg.Recorder == nil && s.cfg.Tracer == nil {
		return
	}
	if s.cfg.Recorder != nil {
		rounds, totalRounds := rt.Rounds()
		rec := telemetry.RequestRecord{
			TraceID:        rt.ID(),
			Dataset:        req.Dataset,
			Algo:           req.Algo,
			Src:            req.Src,
			Variant:        req.Variant.String(),
			Outcome:        ro.outcome,
			Start:          rt.Begin(),
			WallNS:         wall.Nanoseconds(),
			Stages:         spans,
			Rounds:         totalRounds,
			RoundSpans:     rounds,
			Retries:        ro.retries,
			FaultsSurvived: ro.faults,
			Degraded:       degraded,
			Batched:        ro.batched,
			BatchLanes:     ro.lanes,
		}
		if ro.err != nil {
			rec.Error = ro.err.Error()
		}
		if ro.res != nil {
			rec.SimElapsedNS = ro.res.Elapsed.Nanoseconds()
		}
		s.cfg.Recorder.Record(rec)
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Request(rt.ID(), ro.outcome, rt.Begin(), spans)
	}
}
