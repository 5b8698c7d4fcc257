// Command emogi-serve exposes the concurrent traversal service over
// HTTP+JSON: a pool of datasets loaded on one simulated system, served
// with bounded admission, per-request deadlines, and a result cache.
//
//	emogi-serve -graphs GK,GU -scale 0.05 -addr :8080
//
// Endpoints:
//
//	POST /v1/traverse   {"dataset":"GK","algo":"bfs","src":12,"variant":"merged+aligned","timeout_ms":500}
//	GET  /v1/algorithms registered traversal algorithms
//	GET  /v1/datasets   loaded graphs
//	GET  /v1/transports selectable transport policies
//	GET  /v1/tiers      selectable memory-tier stacks (?name= resolves one, 400 on unknown)
//	GET  /metrics       Prometheus text exposition (queue, cache, outcomes, stage latencies)
//	GET  /healthz       health probe: 503 while draining or a device is unhealthy
//	GET  /debug/requests           flight recorder, newest-first (?limit=)
//	GET  /debug/requests/slowest   flight recorder, slowest-first (?limit=)
//	GET  /debug/pprof/  CPU/heap profiles (only with -pprof)
//
// Every request carries a trace ID: an inbound X-Request-ID is honored
// (and echoed on the response, error responses included); otherwise one
// is generated. The ID threads through the structured logs, the request's
// lifecycle spans, the flight recorder, and the -trace timeline.
//
// Overload semantics: requests beyond the -concurrency workers and the
// -queue-depth admission queue are rejected immediately with 429; a
// request whose timeout_ms (or client disconnect) fires mid-run stops at
// the engine's next round boundary and returns 504.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	emogi "repro"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		graphs   = flag.String("graphs", "GK", "comma-separated dataset symbols to load (see -list equivalents in cmd/emogi)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = the standard 1:1000 reduction)")
		seed     = flag.Int64("seed", 42, "graph synthesis seed")
		platform = flag.String("platform", "v100", "platform: v100, titanxp, a100-pcie3, a100-pcie4")
		tiers    = flag.String("tiers", "2tier",
			"memory-tier stack: 2tier (the classic machine) or 3tier-cxl (adds CXL-class external memory); see GET /v1/tiers")
		paging = flag.String("paging", "cpu",
			"UVM paging model: cpu (serialized fault handler) or gpu (GPU-driven page fetch)")
		placement = flag.String("placement", "auto",
			"edge-list tier placement: auto (DRAM with CXL spill), dram, or cxl")
		transport = flag.String("transport", "static-zc",
			"edge-list transport policy: static-zc, static-uvm, or adaptive (v1 spellings zerocopy/uvm still accepted)")
		elemBytes   = flag.Int("elem", 8, "edge element bytes (4 or 8)")
		concurrency = flag.Int("concurrency", 4, "worker goroutines executing traversals")
		queueDepth  = flag.Int("queue-depth", 64, "admission queue depth (beyond it requests get 429)")
		cacheSize   = flag.Int("cache", 128, "result cache entries (0 default, negative disables)")
		workers     = flag.Int("workers", 0, "host goroutines per kernel launch (0 = GOMAXPROCS)")

		batchWindow = flag.Duration("batch-window", 0,
			"coalesce same-dataset/algo/variant requests arriving within this window into one batched run (0 disables)")
		batchMax = flag.Int("batch-max", 32, "max distinct sources per coalesced batch (a full batch dispatches early)")

		faultProfile = flag.String("fault-profile", "none",
			fmt.Sprintf("fault-injection profile: %s", strings.Join(fault.Names(), ", ")))
		faultSeed = flag.Uint64("fault-seed", 1, "fault-injection seed (same seed, same faults)")
		faultRate = flag.Float64("fault-rate", 0,
			"override the profile's transient read-fault rate (0 keeps the profile default)")

		flightRecorder = flag.Int("flight-recorder", telemetry.DefaultRecorderCapacity,
			"flight-recorder capacity: last N completed requests served at /debug/requests (0 disables)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceOut = flag.String("trace", "",
			"write a Chrome trace-event timeline (device tracks + per-request tracks) to this file on shutdown")
		drainGrace = flag.Duration("drain-grace", 0,
			"keep serving (with /healthz at 503) this long after SIGTERM before closing, so load balancers can route away")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	cfg, err := emogi.ParsePlatform(*platform, *scale)
	if err != nil {
		fatal(logger, "bad platform", err)
	}
	cfg.Workers = *workers
	cfg, err = emogi.ApplyTierStack(cfg, *tiers)
	if err != nil {
		fatal(logger, "bad tier stack", err)
	}
	if cfg.GPU.GPUDrivenPaging, err = emogi.ParsePaging(*paging); err != nil {
		fatal(logger, "bad paging model", err)
	}
	place, err := emogi.ParsePlacement(*placement)
	if err != nil {
		fatal(logger, "bad placement", err)
	}
	pol, err := emogi.PolicyByName(*transport)
	if err != nil {
		fatal(logger, "bad transport", err)
	}
	faultCfg, err := fault.ProfileConfig(*faultProfile, *faultSeed)
	if err != nil {
		fatal(logger, "bad fault profile", err)
	}
	if *faultRate > 0 {
		faultCfg.ReadFaultRate = *faultRate
	}
	inj, err := fault.New(faultCfg)
	if err != nil {
		fatal(logger, "bad fault config", err)
	}
	cfg.Faults = inj
	if inj != nil {
		logger.Info("fault injection enabled", "profile", inj.Name(), "seed", *faultSeed)
	}

	// Observability wiring: one registry backs /metrics; the collector
	// attributes device events (kernels, rounds, copies) to it and — when
	// a request is running — to that request's trace; the recorder and
	// health feed /debug/requests and /healthz.
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg)
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer()
	}
	cfg.Telemetry = telemetry.NewCollector(reg, tracer)
	var recorder *telemetry.Recorder
	if *flightRecorder > 0 {
		recorder = telemetry.NewRecorder(*flightRecorder)
	}
	health := telemetry.NewHealth(reg)

	sys := emogi.NewSystem(cfg)
	svc := service.New(sys, service.Config{
		Concurrency:  *concurrency,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheSize,
		Metrics:      reg,
		BatchWindow:  *batchWindow,
		BatchMax:     *batchMax,
		Recorder:     recorder,
		Health:       health,
		Tracer:       tracer,
	})
	for _, sym := range strings.Split(*graphs, ",") {
		sym = strings.TrimSpace(sym)
		if sym == "" {
			continue
		}
		g, err := emogi.BuildDataset(sym, *scale, *seed)
		if err != nil {
			fatal(logger, "building "+sym, err)
		}
		if err := svc.AddGraph(sym, g,
			emogi.WithTransportPolicy(pol), emogi.WithElemBytes(*elemBytes),
			emogi.WithPlacement(place)); err != nil {
			fatal(logger, "loading "+sym, err)
		}
		logger.Info("loaded dataset", "dataset", sym,
			"vertices", g.NumVertices(), "edges", g.NumEdges(), "transport", pol.Name())
	}

	mux := newServeMux(serveDeps{
		svc:      svc,
		reg:      reg,
		recorder: recorder,
		health:   health,
		logger:   logger,
		pprof:    *pprofOn,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen", err)
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "serve", err)
		}
	}()
	logger.Info("serving", "addr", ln.Addr().String(), "pprof", *pprofOn,
		"flight_recorder", recorder.Capacity())

	// Drain-then-stop on SIGINT/SIGTERM. The sequence is deliberate:
	// first flip /healthz to 503 while still accepting requests (the
	// drain grace), so load balancers route away before connections start
	// being refused; then stop the listener and finish in-flight
	// requests; then stop the service and unload.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("draining", "grace", drainGrace.String())
	health.SetDraining(true)
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	svc.Close()
	if tracer != nil {
		if err := writeTrace(*traceOut, tracer); err != nil {
			logger.Error("writing trace", "path", *traceOut, "err", err)
		} else {
			logger.Info("wrote trace", "path", *traceOut, "events", tracer.Len())
		}
	}
	logger.Info("stopped")
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

// writeTrace renders the accumulated timeline to path.
func writeTrace(path string, tracer *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveDeps is everything the HTTP surface needs; newServeMux keeps the
// routing in one testable place.
type serveDeps struct {
	svc      *service.Service
	reg      *telemetry.Registry
	recorder *telemetry.Recorder
	health   *telemetry.Health
	logger   *slog.Logger
	pprof    bool
}

// newServeMux assembles the server's routes: the traversal API plus the
// telemetry surface (/metrics, /healthz, /debug/requests, optional
// pprof).
func newServeMux(d serveDeps) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/traverse", handleTraverse(d.svc, d.logger))
	mux.HandleFunc("/v1/algorithms", handleAlgorithms)
	mux.HandleFunc("/v1/datasets", handleDatasets(d.svc))
	mux.HandleFunc("/v1/transports", handleTransports)
	mux.HandleFunc("/v1/tiers", handleTiers)
	mux.Handle("/", telemetry.NewHandler(telemetry.HandlerOptions{
		Registry: d.reg,
		Recorder: d.recorder,
		Health:   d.health,
		Pprof:    d.pprof,
	}))
	return mux
}

// requestIDHeader carries the request's trace ID in and out.
const requestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds an inbound trace ID; longer ones are replaced so
// a client cannot balloon the recorder or the logs.
const maxRequestIDLen = 128

// requestID honors an inbound X-Request-ID (trimmed, length-capped) or
// generates a fresh trace ID.
func requestID(r *http.Request) string {
	id := strings.TrimSpace(r.Header.Get(requestIDHeader))
	if id == "" || len(id) > maxRequestIDLen {
		return telemetry.NewTraceID()
	}
	return id
}

// traverseRequest is the POST /v1/traverse body.
type traverseRequest struct {
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	Src     int    `json:"src"`
	// Variant is "naive", "merged", or "merged+aligned" (the default).
	Variant string `json:"variant"`
	// Transport optionally overrides the dataset's transport policy for
	// this request ("static-zc", "static-uvm", "adaptive", or a v1
	// spelling; see GET /v1/transports). Unknown names are rejected with
	// 400 before admission.
	Transport string `json:"transport"`
	// TimeoutMS bounds the run; on expiry the traversal stops at the
	// next round boundary and the request returns 504. Zero means no
	// timeout; negative values are rejected with 400.
	TimeoutMS int64 `json:"timeout_ms"`
	// IncludeValues returns the full per-vertex value array (large).
	IncludeValues bool `json:"include_values"`
}

// traverseResponse is the success body. Elapsed fields are simulated
// device time; the values checksum identifies the result without
// shipping the array.
type traverseResponse struct {
	TraceID string `json:"trace_id"`
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	App     string `json:"app"`
	Src     int    `json:"src"`
	Variant string `json:"variant"`
	// Transport is the registry name of the policy the run executed under
	// ("static-zc", "static-uvm", "adaptive") — the dataset's loaded
	// policy, the request's override, or the static-uvm reroute after
	// degradation.
	Transport      string   `json:"transport"`
	Iterations     int      `json:"iterations"`
	ElapsedNS      int64    `json:"elapsed_ns"`
	Elapsed        string   `json:"elapsed"`
	PCIeRequests   uint64   `json:"pcie_requests"`
	PCIePayload    uint64   `json:"pcie_payload_bytes"`
	ValuesChecksum string   `json:"values_checksum"`
	Values         []uint32 `json:"values,omitempty"`
	// Degraded marks a result the service rerouted onto the static-uvm
	// policy after the requested transport kept faulting; the values are
	// still exact.
	Degraded bool `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func handleTraverse(svc *service.Service, logger *slog.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The trace ID is echoed on every response, error paths included,
		// so clients can always correlate.
		id := requestID(r)
		w.Header().Set(requestIDHeader, id)
		log := logger.With("trace_id", id)
		start := time.Now()
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
			return
		}
		var req traverseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			log.Warn("bad request body", "err", err)
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
			return
		}
		variant := emogi.MergedAligned
		if req.Variant != "" {
			var err error
			if variant, err = emogi.ParseVariant(req.Variant); err != nil {
				log.Warn("bad variant", "variant", req.Variant)
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
				return
			}
		}
		if req.Transport != "" {
			// Reject unknown policy names before admission, with the same
			// structured 400 shape as a bad timeout_ms.
			if _, err := emogi.PolicyByName(req.Transport); err != nil {
				log.Warn("bad transport", "transport", req.Transport)
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
				return
			}
		}
		if req.TimeoutMS < 0 {
			// A negative timeout used to silently mean "no timeout" — the
			// opposite of what the client asked for. Reject it instead.
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("timeout_ms must be >= 0, got %d (0 means no timeout)", req.TimeoutMS)})
			return
		}
		ctx := r.Context()
		if req.TimeoutMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		res, err := svc.Do(ctx, service.Request{
			Dataset:   req.Dataset,
			Algo:      req.Algo,
			Src:       req.Src,
			Variant:   variant,
			Transport: req.Transport,
			TraceID:   id,
		})
		if err != nil {
			status := statusFor(err)
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				// Pace well-behaved clients: tell them how long the queue
				// typically takes to turn over before they try again.
				w.Header().Set("Retry-After", retryAfterSeconds(svc.RetryAfterHint()))
			}
			log.Warn("traverse failed", "dataset", req.Dataset, "algo", req.Algo,
				"src", req.Src, "status", status, "wall", time.Since(start).String(), "err", err)
			writeJSON(w, status, errorResponse{Error: err.Error()})
			return
		}
		log.Info("traverse", "dataset", req.Dataset, "algo", req.Algo, "src", req.Src,
			"iterations", res.Iterations, "degraded", res.Degraded,
			"sim", res.Elapsed.String(), "wall", time.Since(start).String())
		resp := traverseResponse{
			TraceID:        id,
			Dataset:        req.Dataset,
			Algo:           req.Algo,
			App:            res.App,
			Src:            res.Source,
			Variant:        res.Variant.String(),
			Transport:      effectiveTransport(res),
			Iterations:     res.Iterations,
			ElapsedNS:      res.Elapsed.Nanoseconds(),
			Elapsed:        res.Elapsed.String(),
			PCIeRequests:   res.Stats.PCIeRequests,
			PCIePayload:    res.Stats.PCIePayloadBytes,
			ValuesChecksum: checksum(res.Values),
			Degraded:       res.Degraded,
		}
		if req.IncludeValues {
			resp.Values = res.Values
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// statusFor maps service errors onto HTTP statuses: shed load is 429
// (retryable), cancellation/deadline is 504, unknown names are 404, and a
// request whose retry budget was exhausted by transient injected faults is
// 503 (retryable — the service already retried and degraded on the
// client's behalf; a later attempt draws fresh fault outcomes).
func statusFor(err error) int {
	var unknownDataset *service.UnknownDatasetError
	var unknownAlgo *emogi.UnknownAlgorithmError
	switch {
	case errors.Is(err, service.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrStopped):
		return http.StatusServiceUnavailable
	case errors.Is(err, emogi.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, emogi.ErrTransient):
		return http.StatusServiceUnavailable
	case errors.As(err, &unknownDataset), errors.As(err, &unknownAlgo):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// retryAfterSeconds renders a duration as the integral seconds form of the
// Retry-After header, rounding up so the hint never tells clients to come
// back before the queue has plausibly turned over.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

func checksum(values []uint32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range values {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

type algorithmInfo struct {
	Name            string `json:"name"`
	Description     string `json:"description"`
	NeedsWeights    bool   `json:"needs_weights"`
	NeedsUndirected bool   `json:"needs_undirected"`
	NoSource        bool   `json:"no_source"`
	FixedVariant    bool   `json:"fixed_variant"`
}

func handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	algos := emogi.Algorithms()
	out := make([]algorithmInfo, len(algos))
	for i, a := range algos {
		out[i] = algorithmInfo{
			Name:            a.Name,
			Description:     a.Description,
			NeedsWeights:    a.NeedsWeights,
			NeedsUndirected: a.NeedsUndirected,
			NoSource:        a.NoSource,
			FixedVariant:    a.FixedVariant,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func handleDatasets(svc *service.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Datasets())
	}
}

// transportInfo is one row of GET /v1/transports.
type transportInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func handleTransports(w http.ResponseWriter, r *http.Request) {
	pols := emogi.TransportPolicies()
	out := make([]transportInfo, len(pols))
	for i, p := range pols {
		out[i] = transportInfo{Name: p.Name(), Description: p.Description()}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTiers serves the memory-tier-stack catalog. With ?name= it answers
// for one stack (resolving aliases), returning a structured 400 listing the
// valid spellings on an unknown name — the same discipline as
// /v1/transports' policy names.
func handleTiers(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("name"); name != "" {
		e, err := emogi.TierStackByName(name)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, e)
		return
	}
	writeJSON(w, http.StatusOK, emogi.TierStacks())
}

// effectiveTransport names the policy the run actually executed under.
// Results from entry points that predate the policy layer carry no policy
// name; the base transport still tells the story there.
func effectiveTransport(res *emogi.Result) string {
	if res.Policy != "" {
		return res.Policy
	}
	return res.Transport.String()
}
