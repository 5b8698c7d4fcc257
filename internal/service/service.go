// Package service is the concurrent traversal service: it owns one
// simulated System plus a pool of loaded graphs and executes many
// traversal requests safely over them. The pieces are exactly what a
// production serving layer needs on top of the frontier engine:
//
//   - Admission control: a bounded queue feeding a fixed worker pool.
//     When the queue is full the request is rejected immediately with
//     ErrOverloaded — load is shed at the door instead of accumulating
//     as unbounded goroutines (requests block only after admission).
//   - Cancellation: each request carries a context; a canceled or
//     expired request stops at the engine's next round boundary with an
//     error matching emogi.ErrCanceled (the cancellation contract is the
//     engine's — see internal/core/cancel.go).
//   - Result cache: the simulator is deterministic, so (dataset, algo,
//     src, variant, transport) fully determines a cold-cache Result; a
//     small LRU answers repeats without touching the device.
//   - Drain-then-stop shutdown: Close stops admission, lets admitted
//     requests finish, then unloads the graphs.
//
// Every stage is instrumented through the shared telemetry registry
// (queue wait, run time, cache hits/misses, per-outcome request counts).
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Typed admission errors.
var (
	// ErrOverloaded is returned when the admission queue is full. The
	// caller should back off and retry; nothing was executed.
	ErrOverloaded = errors.New("service: overloaded (admission queue full)")
	// ErrStopped is returned for requests arriving after Close began.
	ErrStopped = errors.New("service: stopped")
)

// UnknownDatasetError reports a Request.Dataset the service has not
// loaded; its message lists the loaded names.
type UnknownDatasetError struct {
	Name string
	Have []string
}

func (e *UnknownDatasetError) Error() string {
	if len(e.Have) == 0 {
		return fmt.Sprintf("service: unknown dataset %q (no datasets loaded)", e.Name)
	}
	return fmt.Sprintf("service: unknown dataset %q (loaded: %s)",
		e.Name, strings.Join(e.Have, ", "))
}

// Config sizes the service.
type Config struct {
	// Concurrency is the number of worker goroutines executing
	// traversals (default 2). The simulated device serializes runs, so
	// workers beyond 1 mainly bound how many requests can be mid-flight;
	// real deployments with per-stream devices raise it.
	Concurrency int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// (default 16). Requests beyond Concurrency+QueueDepth in flight are
	// rejected with ErrOverloaded.
	QueueDepth int
	// CacheEntries is the LRU result-cache capacity: 0 selects the
	// default (128), negative disables caching.
	CacheEntries int
	// Metrics, when non-nil, receives the service's series; nil creates
	// a private registry (reachable via Registry, e.g. for tests).
	Metrics *telemetry.Registry

	// Fault is the injector whose tallies the service exports as
	// emogi_faults_injected_total (injection itself is wired into the
	// System via emogi.SystemConfig.Faults). Nil selects the System's own
	// injector; with no injector anywhere the fault series stay zero.
	Fault fault.Injector
	// RetryAttempts bounds the total attempts per admitted request,
	// including the first (default 4; 1 disables retries). Only failures
	// matching emogi.ErrTransient are retried.
	RetryAttempts int
	// RetryBackoff is the delay before the first retry (default 2ms).
	// Subsequent retries double it (capped at 64x) and add deterministic
	// jitter derived from the request key, honoring the request context
	// during the wait.
	RetryBackoff time.Duration
	// DegradeAfter is the number of consecutive transient zero-copy
	// failures after which the request is rerouted onto the static-uvm
	// transport policy (default 3) — a policy transition over the same
	// loaded graph, not a reload. UVM traffic is bulk page migrations,
	// which the per-request link faults cannot touch, so a degraded
	// attempt completes where zero-copy kept faulting; the Result is
	// marked Degraded. Requires spare attempts: degradation only happens
	// while the retry budget lasts.
	DegradeAfter int

	// BatchWindow, when positive, enables request coalescing: cache-
	// missing requests for the same (dataset, algo, variant, transport)
	// arriving within the window are dispatched as one batched engine
	// run sharing every edge scan (see batch.go). Zero disables
	// coalescing; every request runs alone.
	BatchWindow time.Duration
	// BatchMax caps how many distinct sources one batch carries (default
	// 32): a full batch seals and dispatches immediately instead of
	// waiting out the window.
	BatchMax int

	// Recorder, when non-nil, receives one flight-recorder record per
	// completed request (every outcome, cache hits and rejections
	// included). Nil disables recording at zero cost.
	Recorder *telemetry.Recorder
	// Health, when non-nil, receives one observation per executed request
	// and is flipped to draining when Close begins, so /healthz can report
	// honestly. Nil disables health tracking.
	Health *telemetry.Health
	// Tracer, when non-nil, receives each completed request as its own
	// track in the Chrome-trace timeline, alongside the device tracks the
	// Collector emits.
	Tracer *telemetry.Tracer
}

// Request names one traversal over a loaded dataset.
type Request struct {
	// Dataset is the name the graph was loaded under (see AddGraph).
	Dataset string
	// Algo is the algorithm registry name ("bfs", "sssp", ...; see
	// emogi.Algorithms).
	Algo string
	// Src is the source vertex (ignored by source-free algorithms).
	Src int
	// Variant selects the kernel access pattern (ignored by
	// fixed-variant specialty kernels).
	Variant emogi.Variant
	// Transport, when set, names the transport policy this request runs
	// under ("static-zc", "static-uvm", "adaptive"; the v1 spellings
	// "zerocopy", "zc", "emogi", "uvm" are aliases), overriding the
	// dataset's loaded policy for this request only. Unknown names are
	// rejected before admission. Empty uses the dataset's policy.
	Transport string
	// TraceID, when set, identifies the request across the lifecycle
	// trace, the flight recorder, and logs (serving layers pass an
	// inbound X-Request-ID through). Empty generates one. It never enters
	// the cache key: equivalent requests share an entry regardless of ID.
	TraceID string
}

// DatasetInfo describes one loaded graph.
type DatasetInfo struct {
	Name      string
	Vertices  int
	Edges     int64
	Transport string
	// Policy is the registry name of the transport policy the dataset was
	// loaded under ("static-zc", "static-uvm", "adaptive").
	Policy   string
	Directed bool
	Weighted bool
}

// task is one admission unit moving through the queue: the lanes of one
// run, each with the callers waiting on it, occupying a single queue slot
// together. A coalesced task gathers lanes in a pending batch until its
// window seals it (batch.go) and runs them in one System.DoBatch; any
// other request is a sealed one-lane task with one waiter that runs
// through System.Do.
type task struct {
	// base is the run every lane shares; each lane adds its Src and Ctx.
	base      emogi.Request
	coalesced bool
	lanes     []*lane

	// Coalescing state, guarded by Service.bmu while the batch is open.
	key    batchKey
	bySrc  map[int]*lane
	timer  *time.Timer
	sealed bool

	enqueued time.Time // when the sealed task entered admission

	// trace collects the task's lifecycle spans and round events: the
	// waiter's own trace for a task that was not coalesced, a shared
	// batch-scoped trace otherwise (runTask replays it into every
	// waiter's). The executing worker owns the fields below until it
	// delivers; the channel receive orders the callers' reads after them.
	trace    *telemetry.RequestTrace
	attempts int    // execution attempts made (retries = attempts - 1)
	faults   uint64 // injected read faults absorbed by failed attempts
}

// lane is one distinct source inside a task.
type lane struct {
	src     int
	key     cacheKey
	waiters []*waiter
}

// waiter is one caller blocked in Do waiting for its lane.
type waiter struct {
	ctx  context.Context
	done chan requestOutcome // buffered: delivery never blocks

	// trace is the waiter's own request trace; joined is when it entered
	// the pending batch (coalesced tasks only).
	trace  *telemetry.RequestTrace
	joined time.Time
}

// Service executes traversal requests over one System.
type Service struct {
	sys     *emogi.System
	cfg     Config
	reg     *telemetry.Registry
	met     *metrics
	cache   *resultCache
	devName string // health/identity name of the system's device

	queue    chan *task
	wg       sync.WaitGroup
	inflight atomic.Int64

	// runEWMA holds the float64 bits of an exponentially weighted moving
	// average of run wall time in seconds, feeding RetryAfterHint.
	runEWMA atomic.Uint64

	// faultMu guards lastFaults, the injector tally already exported to
	// the telemetry counters; syncFaultCounters adds only the delta, so
	// the exported series exactly track the injector's own counts.
	faultMu    sync.Mutex
	lastFaults fault.Counts

	// bmu guards pending, the open (unsealed) coalescing batches by key.
	bmu     sync.Mutex
	pending map[batchKey]*task

	mu     sync.Mutex
	graphs map[string]*emogi.DeviceGraph
	closed bool
}

// New starts a service over sys with cfg's pool sizes. The caller hands
// the System over: the service serializes all device access, and Close
// unloads the graphs it loaded.
func New(sys *emogi.System, cfg Config) *Service {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	cacheEntries := cfg.CacheEntries
	if cacheEntries == 0 {
		cacheEntries = 128
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 4
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.DegradeAfter <= 0 {
		cfg.DegradeAfter = 3
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 32
	}
	if cfg.Fault == nil {
		cfg.Fault = sys.Faults()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Service{
		sys:     sys,
		cfg:     cfg,
		reg:     reg,
		met:     newMetrics(reg),
		devName: sys.Config().GPU.Name,
		queue:   make(chan *task, cfg.QueueDepth),
		graphs:  make(map[string]*emogi.DeviceGraph),
		pending: make(map[batchKey]*task),
	}
	// List the device healthy before traffic, so /healthz names it from
	// the first scrape.
	cfg.Health.RegisterDevice(s.devName)
	if cacheEntries > 0 {
		// cacheEntries is positive by construction here; a constructor
		// error would be a programming bug, not a config value.
		cache, err := newResultCache(cacheEntries)
		if err != nil {
			panic(err)
		}
		s.cache = cache
	}
	s.wg.Add(cfg.Concurrency)
	for i := 0; i < cfg.Concurrency; i++ {
		go s.worker()
	}
	return s
}

// Registry returns the telemetry registry the service reports into.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// AddGraph loads g onto the service's system under name. Load options
// (transport, element width) pass through to System.Load.
func (s *Service) AddGraph(name string, g *emogi.Graph, opts ...emogi.LoadOption) error {
	if name == "" {
		return fmt.Errorf("service: AddGraph requires a dataset name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStopped
	}
	if _, dup := s.graphs[name]; dup {
		return fmt.Errorf("service: dataset %q already loaded", name)
	}
	dg, err := s.sys.Load(g, opts...)
	if err != nil {
		return err
	}
	s.graphs[name] = dg
	s.met.datasets.Set(float64(len(s.graphs)))
	return nil
}

// Datasets describes the loaded graphs sorted by name.
func (s *Service) Datasets() []DatasetInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DatasetInfo, 0, len(s.graphs))
	for name, dg := range s.graphs {
		out = append(out, DatasetInfo{
			Name:      name,
			Vertices:  dg.Graph.NumVertices(),
			Edges:     dg.Graph.NumEdges(),
			Transport: dg.Transport.String(),
			Policy:    dg.PolicyName(),
			Directed:  dg.Graph.Directed,
			Weighted:  dg.Graph.Weights != nil,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// datasetNames returns the loaded names sorted, for error messages.
func (s *Service) datasetNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Do executes one request: cache lookup, bounded admission, then a
// worker runs it on the device. It blocks until the request completes,
// is canceled, or is rejected. Safe for concurrent use.
//
// Every request is traced end to end: its TraceID (generated when empty)
// and lifecycle spans flow into the flight recorder, the per-stage
// histograms, and — for executed runs — the device health window.
func (s *Service) Do(ctx context.Context, req Request) (*emogi.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id := req.TraceID
	if id == "" {
		id = telemetry.NewTraceID()
	}
	rt := telemetry.NewRequestTrace(id)
	admitStart := rt.Begin()

	// fail resolves a request that never reached a worker: the admission
	// span covers whatever validation rejected it.
	fail := func(outcome string, err error) (*emogi.Result, error) {
		s.met.outcome(outcome)
		rt.Observe(telemetry.StageAdmission, 0, admitStart, err.Error())
		s.finishRequest(rt, req, requestOutcome{outcome: outcome, err: err})
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fail(outcomeRejected, ErrStopped)
	}
	dg := s.graphs[req.Dataset]
	s.mu.Unlock()
	if dg == nil {
		return fail(outcomeError, &UnknownDatasetError{Name: req.Dataset, Have: s.datasetNames()})
	}
	algo := core.LookupAlgorithm(req.Algo)
	if algo == nil {
		return fail(outcomeError, &core.UnknownAlgorithmError{Name: req.Algo})
	}
	// Resolve the per-request transport-policy override before admission,
	// so unknown names fail fast with the resolver's error.
	var pol emogi.TransportPolicy
	policyName := dg.PolicyName()
	if req.Transport != "" {
		var perr error
		if pol, perr = emogi.PolicyByName(req.Transport); perr != nil {
			return fail(outcomeError, perr)
		}
		policyName = pol.Name()
	}

	// Normalize the cache key so equivalent requests share an entry.
	key := cacheKey{
		dataset: req.Dataset,
		algo:    algo.Name,
		src:     req.Src,
		variant: req.Variant,
		policy:  policyName,
	}
	if algo.NoSource {
		key.src = -1
	}
	if algo.FixedVariant {
		key.variant = 0
	}
	if s.cache != nil {
		if res, ok := s.cache.get(key); ok {
			s.met.cacheHits.Inc()
			s.met.outcome(outcomeCached)
			rt.Observe(telemetry.StageAdmission, 0, admitStart, "cache hit")
			s.finishRequest(rt, req, requestOutcome{outcome: outcomeCached, res: res})
			return res, nil
		}
		s.met.cacheMiss.Inc()
	}
	rt.Observe(telemetry.StageAdmission, 0, admitStart, "")

	// Coalescing: batchable algorithms join the pending batch for their
	// key (see batch.go); any other request is admitted as a one-lane
	// task. Either way the worker always delivers, including for canceled
	// requests (the engine observes ctx at the next round boundary), so
	// waiting here cannot hang on an abandoned context.
	w := &waiter{ctx: ctx, done: make(chan requestOutcome, 1), trace: rt}
	if s.cfg.BatchWindow > 0 && algo.Batch != nil {
		s.coalesce(w, dg, pol, key)
	} else {
		s.dispatch(&task{
			base:  emogi.Request{Graph: dg, Algo: req.Algo, Variant: req.Variant, Cold: true, Policy: pol},
			lanes: []*lane{{src: req.Src, key: key, waiters: []*waiter{w}}},
			trace: rt,
		})
	}
	r := <-w.done
	s.finishRequest(rt, req, r)
	return r.res, r.err
}

// dispatch admits a sealed task to the worker queue: one slot however
// many lanes it carries, which is exactly the load-shedding win
// coalescing buys. The closed check and the send share the mutex so Close
// cannot close the queue between them. Rejection (queue full, service
// stopped) fails every waiter.
func (s *Service) dispatch(t *task) {
	t.enqueued = time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.reject(t, ErrStopped)
		return
	}
	select {
	case s.queue <- t:
		s.met.queued.Set(float64(len(s.queue)))
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.reject(t, ErrOverloaded)
	}
}

// reject delivers one error to every waiter of every lane.
func (s *Service) reject(t *task, err error) {
	for _, ln := range t.lanes {
		for _, w := range ln.waiters {
			s.deliver(w, requestOutcome{err: err})
		}
	}
}

// deliver counts one waiter's outcome and hands it over.
func (s *Service) deliver(w *waiter, ro requestOutcome) {
	ro.outcome = outcomeOf(ro.err)
	s.met.outcome(ro.outcome)
	w.done <- ro
}

// worker executes admitted tasks until the queue closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.met.queued.Set(float64(len(s.queue)))
		s.met.queueWait.Observe(t.trace.Observe(telemetry.StageQueue, 0, t.enqueued, "").Seconds())
		s.runTask(t)
	}
}

// runTask executes one admitted task and delivers per-lane results, cache
// fills and metrics to every waiter. Only lanes that completed cleanly
// under the requested transport policy are cached: a degraded lane ran
// rerouted onto static-uvm, a policy its cache key does not name, so it
// is never cached even when its batchmates are. Duplicates of a lane each
// get a private copy, since waiters legitimately mutate their response.
func (s *Service) runTask(t *task) {
	s.met.inflight.Set(float64(s.inflight.Add(1)))
	start := time.Now()
	out, err := s.execute(t)
	elapsed := time.Since(start)
	s.met.runTime.Observe(elapsed.Seconds())
	s.observeRunTime(elapsed)
	s.met.inflight.Set(float64(s.inflight.Add(-1)))

	meta := requestOutcome{executed: true, retries: t.attempts - 1, faults: t.faults}
	if t.coalesced {
		s.met.batchSize.Observe(float64(len(t.lanes)))
		meta.batched, meta.lanes = true, len(t.lanes)
	}
	if err == nil && out.BatchedRun {
		s.met.batchedRuns.Inc()
		s.met.edgeScansSaved.Add(out.EdgeScansSaved)
	}
	replay := t.replayer()
	for i, ln := range t.lanes {
		ro := meta
		ro.err = err
		if err == nil {
			ro.res, ro.err = out.Results[i].Res, out.Results[i].Err
			if ro.err == nil && s.cache != nil && !ro.res.Degraded {
				s.cache.put(ln.key, ro.res)
			}
		}
		for wi, w := range ln.waiters {
			r := ro
			if wi > 0 {
				r.res = cloneResult(r.res)
			}
			replay(w)
			s.deliver(w, r)
		}
	}
}

// execute runs one admitted task with retry, backoff, and transport
// degradation. A coalesced task runs its lanes in one System.DoBatch, any
// other task its one lane through System.Do. Attempts that fail with an
// error matching emogi.ErrTransient (aborted traversals, injected
// allocation failures) are retried after an exponential, jittered backoff
// until the budget (Config.RetryAttempts) runs out; after
// Config.DegradeAfter consecutive transient zero-copy failures the
// remaining attempts run every lane under the static-uvm policy override —
// a transport-policy transition, not a reload: the policy layer rebinds
// the same pinned edge list to page migration, whose bulk traffic the
// per-request link faults cannot touch — and each delivered Result is
// marked Degraded. Every other error — cancellation included — returns
// immediately.
//
// A task that was not coalesced runs and backs off under its caller's
// context. A coalesced task never carries a caller context: each lane
// detaches through its own waiters' contexts instead.
func (s *Service) execute(t *task) (*emogi.BatchOutcome, error) {
	stop := make(chan struct{})
	defer close(stop)
	reqs := make([]emogi.Request, len(t.lanes))
	for i, ln := range t.lanes {
		reqs[i] = t.base
		reqs[i].Src = ln.src
		reqs[i].Ctx = laneContext(ln.waiters, stop)
	}
	ctx := context.Background()
	if !t.coalesced {
		ctx = reqs[0].Ctx
	}
	degraded := false
	consecutive := 0
	var lastErr error
	for attempt := 0; attempt < s.cfg.RetryAttempts; attempt++ {
		t.attempts = attempt + 1
		if attempt > 0 {
			s.met.retries.Inc()
			if err := s.backoff(ctx, t, attempt); err != nil {
				return nil, err
			}
		}
		// Cold caches make every run independent of queue order: UVM
		// residency and staged segments are device-global state the LRU
		// cache key could not otherwise account for. The task trace rides
		// the context so the collector attributes the run's rounds to it.
		execStart := time.Now()
		runCtx := telemetry.WithTrace(ctx, t.trace)
		var out *emogi.BatchOutcome
		var err error
		if t.coalesced {
			out, err = s.sys.DoBatch(runCtx, reqs)
		} else {
			var res *emogi.Result
			if res, err = s.sys.Do(runCtx, reqs[0]); err == nil {
				out = &emogi.BatchOutcome{Results: []emogi.BatchItem{{Res: res}}}
			}
		}
		s.syncFaultCounters()
		t.trace.Observe(telemetry.StageExecute, attempt+1, execStart, executeDetail(degraded, err))
		if err == nil {
			if degraded {
				for _, item := range out.Results {
					if item.Res != nil {
						item.Res.Degraded = true
						s.met.degraded.Inc()
					}
				}
			}
			return out, nil
		}
		var te *emogi.TransientError
		if errors.As(err, &te) {
			t.faults += te.Faults
		}
		if !errors.Is(err, emogi.ErrTransient) {
			return nil, err
		}
		lastErr = err
		consecutive++
		if !degraded && consecutive >= s.cfg.DegradeAfter && attempt+1 < s.cfg.RetryAttempts {
			degStart := time.Now()
			for i := range reqs {
				reqs[i].Policy = emogi.StaticPolicy(emogi.UVM)
			}
			degraded = true
			t.trace.Observe(telemetry.StageDegrade, attempt+1, degStart, "rerouted onto static-uvm policy")
		}
	}
	return nil, fmt.Errorf("service: retry budget exhausted after %d attempts: %w",
		s.cfg.RetryAttempts, lastErr)
}

// executeDetail annotates one execute span: the transport it ran on and
// how it failed, if it did.
func executeDetail(degraded bool, err error) string {
	d := ""
	if degraded {
		d = "uvm"
	}
	switch {
	case err == nil:
		return d
	case errors.Is(err, emogi.ErrTransient):
		return strings.TrimSpace(d + " transient fault")
	case errors.Is(err, emogi.ErrCanceled):
		return strings.TrimSpace(d + " canceled")
	default:
		return strings.TrimSpace(d + " error")
	}
}

// backoff sleeps before retry number attempt (>= 1), honoring ctx: an
// exponential base delay (doubling per retry, capped at 64x)
// whose upper half is jittered deterministically from the request key and
// attempt number, so identical request streams reproduce identical
// schedules while distinct requests decorrelate.
func (s *Service) backoff(ctx context.Context, t *task, attempt int) error {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	base := s.cfg.RetryBackoff << uint(shift)
	delay := base/2 + time.Duration(retryJitter(t.lanes[0].key, attempt)%uint64(base/2+1))
	timer := time.NewTimer(delay)
	defer timer.Stop()
	// The backoff span carries the attempt it precedes (1-based, matching
	// the execute span it delays).
	start := time.Now()
	select {
	case <-ctx.Done():
		t.trace.Observe(telemetry.StageBackoff, attempt+1, start, "canceled")
		return &emogi.CanceledError{App: t.base.Algo, Cause: ctx.Err()}
	case <-timer.C:
		t.trace.Observe(telemetry.StageBackoff, attempt+1, start, "")
		return nil
	}
}

// retryJitter hashes the request key and attempt number into the
// deterministic jitter source for backoff.
func retryJitter(k cacheKey, attempt int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(k.dataset))
	h.Write([]byte{0})
	h.Write([]byte(k.algo))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(k.src)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(int(k.variant))))
	h.Write([]byte{0})
	h.Write([]byte(k.policy))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(attempt)))
	return h.Sum64()
}

// syncFaultCounters folds the injector's tally growth into the telemetry
// counters. Deltas are taken under faultMu, so concurrent workers export
// each injected fault exactly once and the series totals always equal the
// injector's own counts.
func (s *Service) syncFaultCounters() {
	inj := s.cfg.Fault
	if inj == nil {
		return
	}
	now := inj.Counts()
	s.faultMu.Lock()
	prev := s.lastFaults
	s.lastFaults = now
	s.faultMu.Unlock()
	s.met.faults[faultKindRead].Add(now.ReadFaults - prev.ReadFaults)
	s.met.faults[faultKindSpike].Add(now.Spikes - prev.Spikes)
	s.met.faults[faultKindAlloc].Add(now.AllocFaults - prev.AllocFaults)
}

// observeRunTime folds one run's wall time into the EWMA behind
// RetryAfterHint.
func (s *Service) observeRunTime(d time.Duration) {
	obs := d.Seconds()
	for {
		old := s.runEWMA.Load()
		next := obs
		if old != 0 {
			next = 0.8*math.Float64frombits(old) + 0.2*obs
		}
		if s.runEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// RetryAfterHint suggests how long a shed client should wait before
// retrying: the mean recent run wall time, floored at one second so
// early scrapes (no runs observed yet) and sub-millisecond simulated
// workloads still pace clients sanely. Serving layers put it in the
// Retry-After header of 429 responses.
func (s *Service) RetryAfterHint() time.Duration {
	hint := time.Second
	if bits := s.runEWMA.Load(); bits != 0 {
		if d := time.Duration(math.Float64frombits(bits) * float64(time.Second)); d > hint {
			hint = d
		}
	}
	return hint
}

// Close drains and stops the service: new requests are rejected with
// ErrStopped, admitted requests run to completion (or cancellation),
// the workers exit, and the loaded graphs are unloaded. Close is
// idempotent and safe to call concurrently with Do.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Draining starts the moment admission stops: /healthz flips to 503
	// while admitted requests finish, and stays there — a closed service
	// never serves again.
	s.cfg.Health.SetDraining(true)
	// Fail the open coalescing batches before the queue closes: their
	// window timers would otherwise dispatch into a stopped service while
	// the waiters block forever. Marking them sealed under bmu makes a
	// concurrently firing timer a no-op; sealed batches already in (or
	// racing into) the queue drain normally below.
	s.bmu.Lock()
	var orphaned []*task
	for k, t := range s.pending {
		t.sealed = true
		orphaned = append(orphaned, t)
		delete(s.pending, k)
	}
	s.bmu.Unlock()
	for _, t := range orphaned {
		t.timer.Stop()
		s.reject(t, ErrStopped)
	}
	// No sender can reach the queue after closed is set (the admission
	// send happens under the mutex), so closing here is race-free.
	close(s.queue)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, dg := range s.graphs {
		s.sys.Unload(dg)
		delete(s.graphs, name)
	}
	s.met.datasets.Set(0)
}
