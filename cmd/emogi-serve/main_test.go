package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	emogi "repro"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// testLogger discards structured log output in handler tests.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

const testScale = 0.02

// newServeService builds a service over a small system for handler
// tests. inj may be nil for a fault-free system.
func newServeService(t *testing.T, inj fault.Injector, cfg service.Config) (*service.Service, *emogi.System) {
	t.Helper()
	syscfg := emogi.V100PCIe3(testScale)
	syscfg.Faults = inj
	sys := emogi.NewSystem(syscfg)
	svc := service.New(sys, cfg)
	g, err := emogi.BuildDataset("GK", testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddGraph("GK", g); err != nil {
		t.Fatal(err)
	}
	return svc, sys
}

func postTraverse(handler http.HandlerFunc, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/traverse", strings.NewReader(body))
	handler(rr, req)
	return rr
}

// TestTraverseNegativeTimeout: a negative timeout_ms is a client error
// with a structured body naming the field, not a silent "no timeout".
func TestTraverseNegativeTimeout(t *testing.T) {
	svc, _ := newServeService(t, nil, service.Config{Concurrency: 1})
	defer svc.Close()
	handler := handleTraverse(svc, testLogger())

	rr := postTraverse(handler, `{"dataset":"GK","algo":"bfs","src":1,"timeout_ms":-5}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rr.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatalf("400 body is not the structured error JSON: %v (%q)", err, rr.Body.String())
	}
	if !strings.Contains(er.Error, "timeout_ms") || !strings.Contains(er.Error, "-5") {
		t.Errorf("error %q does not name the field and the offending value", er.Error)
	}
}

// TestTraverseRetryAfterOn429: shed requests carry a Retry-After header
// of at least one second so clients can pace their retries.
func TestTraverseRetryAfterOn429(t *testing.T) {
	svc, sys := newServeService(t, nil, service.Config{
		Concurrency:  1,
		QueueDepth:   1, // capacity 2: the rest of the flood must shed
		CacheEntries: -1,
	})
	defer svc.Close()
	handler := handleTraverse(svc, testLogger())

	// Freeze the device so admitted requests block and capacity stays full.
	release := make(chan struct{})
	held := make(chan struct{})
	go sys.Device().Exclusive(func() {
		close(held)
		<-release
	})
	<-held

	type reply struct {
		code       int
		retryAfter string
	}
	const flood = 8
	replies := make(chan reply, flood)
	for i := 0; i < flood; i++ {
		go func(i int) {
			rr := postTraverse(handler,
				`{"dataset":"GK","algo":"bfs","src":`+strconv.Itoa(i)+`}`)
			replies <- reply{rr.Code, rr.Header().Get("Retry-After")}
		}(i)
	}

	// Rejections return immediately while admitted requests block on the
	// frozen device, so a 429 arrives long before the timeout.
	timeout := time.After(10 * time.Second)
	seen429 := false
	drained := 0
	for !seen429 {
		select {
		case r := <-replies:
			drained++
			if r.code != http.StatusTooManyRequests {
				continue
			}
			seen429 = true
			secs, err := strconv.Atoi(r.retryAfter)
			if err != nil {
				t.Fatalf("429 Retry-After = %q, want integral seconds", r.retryAfter)
			}
			if secs < 1 {
				t.Errorf("429 Retry-After = %d, want >= 1", secs)
			}
		case <-timeout:
			t.Fatalf("no 429 after 10s (%d replies drained)", drained)
		}
	}
	close(release)
	for ; drained < flood; drained++ {
		<-replies
	}
}

// TestTraverseDegraded: against a flaky link the handler still answers
// 200 — the service retried and rerouted onto the static-uvm policy — and
// the response carries the degraded marker plus the policy it ran under.
func TestTraverseDegraded(t *testing.T) {
	cfg, err := fault.ProfileConfig(fault.ProfileFlakyLink, 7)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newServeService(t, inj, service.Config{Concurrency: 1, CacheEntries: -1})
	defer svc.Close()
	handler := handleTraverse(svc, testLogger())

	rr := postTraverse(handler, `{"dataset":"GK","algo":"bfs","src":3}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200 via retry+degradation", rr.Code, rr.Body.String())
	}
	var resp traverseResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Error("response not marked degraded despite the static-uvm reroute")
	}
	if resp.Transport != "static-uvm" {
		t.Errorf("transport = %q, want static-uvm after degradation", resp.Transport)
	}
	if resp.Iterations == 0 || resp.ValuesChecksum == "" {
		t.Errorf("degraded response is missing traversal results: %+v", resp)
	}
}

// TestTraverseUnknownTransport: an unknown transport policy name is a
// structured 400 naming the offending value, same shape as a bad
// timeout_ms — not a silent fallback to the dataset's policy.
func TestTraverseUnknownTransport(t *testing.T) {
	svc, _ := newServeService(t, nil, service.Config{Concurrency: 1})
	defer svc.Close()
	handler := handleTraverse(svc, testLogger())

	rr := postTraverse(handler, `{"dataset":"GK","algo":"bfs","src":1,"transport":"warp-speed"}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rr.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatalf("400 body is not the structured error JSON: %v (%q)", err, rr.Body.String())
	}
	if !strings.Contains(er.Error, "warp-speed") {
		t.Errorf("error %q does not name the offending transport", er.Error)
	}
}

// TestTraverseTransportOverride: a request naming a policy runs under it —
// the response reports the override, not the dataset's loaded policy.
func TestTraverseTransportOverride(t *testing.T) {
	svc, _ := newServeService(t, nil, service.Config{Concurrency: 1})
	defer svc.Close()
	handler := handleTraverse(svc, testLogger())

	rr := postTraverse(handler, `{"dataset":"GK","algo":"bfs","src":2,"transport":"adaptive"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", rr.Code, rr.Body.String())
	}
	var resp traverseResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Transport != "adaptive" {
		t.Errorf("transport = %q, want adaptive (the request's override)", resp.Transport)
	}
	if resp.Iterations == 0 || resp.ValuesChecksum == "" {
		t.Errorf("override response is missing traversal results: %+v", resp)
	}
}

// TestTransportsEndpoint: GET /v1/transports lists the selectable policies
// in registry order with non-empty descriptions.
func TestTransportsEndpoint(t *testing.T) {
	rr := httptest.NewRecorder()
	handleTransports(rr, httptest.NewRequest(http.MethodGet, "/v1/transports", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	var out []transportInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	want := []string{"static-zc", "static-uvm", "adaptive"}
	if len(out) != len(want) {
		t.Fatalf("got %d transports, want %d: %+v", len(out), len(want), out)
	}
	for i, w := range want {
		if out[i].Name != w {
			t.Errorf("transports[%d].name = %q, want %q", i, out[i].Name, w)
		}
		if out[i].Description == "" {
			t.Errorf("transports[%d] (%s) has an empty description", i, out[i].Name)
		}
	}
}

// TestStatusForTransient: an exhausted retry budget maps to 503, the
// retryable server-side status, not a client error.
func TestStatusForTransient(t *testing.T) {
	err := &emogi.TransientError{App: "BFS", Rounds: 2, Faults: 7}
	if got := statusFor(err); got != http.StatusServiceUnavailable {
		t.Errorf("statusFor(TransientError) = %d, want 503", got)
	}
}

// TestTraverseRequestIDEcho: an inbound X-Request-ID is honored verbatim —
// on the response header, in the response body, and as the flight
// recorder's trace ID.
func TestTraverseRequestIDEcho(t *testing.T) {
	rec := telemetry.NewRecorder(8)
	svc, _ := newServeService(t, nil, service.Config{Concurrency: 1, Recorder: rec})
	defer svc.Close()
	handler := handleTraverse(svc, testLogger())

	const id = "client-chosen-trace-7f3a"
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/traverse",
		strings.NewReader(`{"dataset":"GK","algo":"bfs","src":1}`))
	req.Header.Set("X-Request-ID", id)
	handler(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get("X-Request-ID"); got != id {
		t.Errorf("response X-Request-ID = %q, want %q", got, id)
	}
	var resp traverseResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != id {
		t.Errorf("body trace_id = %q, want %q", resp.TraceID, id)
	}
	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight recorder holds %d records, want 1", len(recs))
	}
	if recs[0].TraceID != id {
		t.Errorf("recorded trace ID = %q, want %q", recs[0].TraceID, id)
	}
}

// TestTraverseRequestIDGenerated: with no inbound header every response —
// including error responses — carries a fresh server-generated trace ID.
func TestTraverseRequestIDGenerated(t *testing.T) {
	svc, _ := newServeService(t, nil, service.Config{Concurrency: 1})
	defer svc.Close()
	handler := handleTraverse(svc, testLogger())

	rr := postTraverse(handler, `{"dataset":"GK","algo":"bfs","src":2}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rr.Code, rr.Body.String())
	}
	id := rr.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatal("success response missing generated X-Request-ID")
	}
	var resp traverseResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != id {
		t.Errorf("body trace_id = %q, header = %q; want them equal", resp.TraceID, id)
	}

	// Error paths must echo too: a 404 for an unknown dataset still
	// carries the trace ID the client sent.
	rr = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/traverse",
		strings.NewReader(`{"dataset":"NOPE","algo":"bfs","src":1}`))
	req.Header.Set("X-Request-ID", "err-path-id")
	handler(rr, req)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown dataset status = %d, want 404", rr.Code)
	}
	if got := rr.Header().Get("X-Request-ID"); got != "err-path-id" {
		t.Errorf("404 response X-Request-ID = %q, want err-path-id", got)
	}
}

// TestServeMuxSurface drives the assembled mux end to end: traffic lands
// in the flight recorder at /debug/requests, /healthz flips to 503 when
// draining begins, and unknown routes 404.
func TestServeMuxSurface(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(8)
	health := telemetry.NewHealth(reg)
	svc, _ := newServeService(t, nil, service.Config{
		Concurrency: 1, Metrics: reg, Recorder: rec, Health: health,
	})
	defer svc.Close()
	mux := newServeMux(serveDeps{
		svc: svc, reg: reg, recorder: rec, health: health, logger: testLogger(),
	})

	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rr := httptest.NewRecorder()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		mux.ServeHTTP(rr, httptest.NewRequest(method, path, rd))
		return rr
	}

	if rr := do(http.MethodGet, "/healthz", ""); rr.Code != http.StatusOK {
		t.Fatalf("/healthz before drain = %d, want 200", rr.Code)
	}
	if rr := do(http.MethodPost, "/v1/traverse", `{"dataset":"GK","algo":"bfs","src":1}`); rr.Code != http.StatusOK {
		t.Fatalf("traverse via mux = %d (%s)", rr.Code, rr.Body.String())
	}

	rr := do(http.MethodGet, "/debug/requests", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/requests = %d", rr.Code)
	}
	var payload struct {
		Total    uint64                    `json:"total"`
		Requests []telemetry.RequestRecord `json:"requests"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/debug/requests body: %v", err)
	}
	if payload.Total == 0 || len(payload.Requests) == 0 {
		t.Fatalf("/debug/requests empty after traffic: %s", rr.Body.String())
	}

	if rr := do(http.MethodGet, "/no/such/route", ""); rr.Code != http.StatusNotFound {
		t.Errorf("unknown route = %d, want 404", rr.Code)
	}

	health.SetDraining(true)
	if rr := do(http.MethodGet, "/healthz", ""); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining = %d, want 503", rr.Code)
	}
}

// TestTiersEndpoint: GET /v1/tiers lists the named memory-tier stacks,
// ?name= resolves aliases, and an unknown name is a structured 400.
func TestTiersEndpoint(t *testing.T) {
	rr := httptest.NewRecorder()
	handleTiers(rr, httptest.NewRequest(http.MethodGet, "/v1/tiers", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	var out []emogi.TierStackEntry
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Name != "2tier" || out[1].Name != "3tier-cxl" {
		t.Fatalf("catalog = %+v", out)
	}
	for _, e := range out {
		if e.Description == "" || e.Tiers < 2 {
			t.Errorf("entry %s is missing description or tiers: %+v", e.Name, e)
		}
	}

	rr = httptest.NewRecorder()
	handleTiers(rr, httptest.NewRequest(http.MethodGet, "/v1/tiers?name=cxl", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("?name=cxl status = %d, want 200", rr.Code)
	}
	var one emogi.TierStackEntry
	if err := json.Unmarshal(rr.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if one.Name != "3tier-cxl" {
		t.Errorf("?name=cxl resolved to %q, want 3tier-cxl", one.Name)
	}

	rr = httptest.NewRecorder()
	handleTiers(rr, httptest.NewRequest(http.MethodGet, "/v1/tiers?name=nvlink", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown name status = %d, want 400", rr.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error == "" || !strings.Contains(e.Error, "nvlink") {
		t.Errorf("structured 400 should name the unknown stack: %+v", e)
	}
}
