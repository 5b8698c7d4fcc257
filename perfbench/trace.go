package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	emogi "repro"
	"repro/internal/gpu"
)

// span is one timed interval on the host clock. Spans form a tree through
// Parent (0 is the root); a layer's self time is its spans' durations
// minus the part of each interval that child spans cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. The benchmark opens
// spans around its own calls into the graph, core and service layers;
// the device's emogi.Telemetry hooks add the run, round, launch and copy
// spans, stamping the host clock when each simulated event completes.
// Device hooks arrive sequentially from the goroutine holding the device,
// while serve-mix opens service spans from many goroutines, so every
// method locks.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	open   map[int]span
	nextID int

	// Device-hook state. runParent is the span device runs attach to;
	// last is the previous hook event, where the next launch or copy
	// span starts (a launch span covers the host work since then).
	runParent   int
	run         int
	round       int
	roundEvents int
	last        int64

	launches   uint64
	warpInstrs uint64
	launchNS   int64
	rounds     uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[int]span{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID. A nil tracer records nothing and
// returns 0, so untraced runs pay one nil check per call site.
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(layer, name, parent, t.now())
}

func (t *tracer) beginLocked(layer, name string, parent int, at int64) int {
	t.nextID++
	id := t.nextID
	t.open[id] = span{ID: id, Parent: parent, Layer: layer, Name: name, StartNS: at}
	return id
}

// end closes the span opened as id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endLocked(id, t.now())
}

func (t *tracer) endLocked(id int, at int64) {
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.EndNS = at
	t.spans = append(t.spans, s)
}

// closed returns a copy of the closed spans sorted by ID.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// setRunParent sets the span that the next device runs attach to.
func (t *tracer) setRunParent(id int) {
	t.mu.Lock()
	t.runParent = id
	t.mu.Unlock()
}

// RunBegin opens a core.run span and the first round interval.
func (t *tracer) RunBegin(_ *gpu.Device, _ emogi.RunLabels) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.now()
	t.run = t.beginLocked("core", "core.run", t.runParent, at)
	t.round = t.beginLocked("core", "core.round", t.run, at)
	t.roundEvents = 0
	t.last = at
}

// RunEnd closes the run. Launches and copies after the last round
// (result download) land in a core.finish span; the remaining host work
// stays in the run span's self time.
func (t *tracer) RunEnd(_ *gpu.Device) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.now()
	if t.roundEvents > 0 {
		s := t.open[t.round]
		s.Name = "core.finish"
		t.open[t.round] = s
		t.endLocked(t.round, t.last)
	} else {
		delete(t.open, t.round)
	}
	t.round = 0
	t.endLocked(t.run, at)
	t.run = 0
}

// KernelDone records a launch span from the previous hook event.
func (t *tracer) KernelDone(_ *gpu.Device, ks *gpu.KernelStats, _, _ int, _, _ time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.launches++
	t.warpInstrs += ks.WarpInstrs
	t.launchNS += t.deviceSpan("gpu", "gpu.launch")
}

// CopyDone records a bulk-copy span from the previous hook event.
func (t *tracer) CopyDone(_ *gpu.Device, _ bool, _ int64, _, _ time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deviceSpan("pcie", "pcie.copy")
}

// TransportDecisions records the adaptive policy's decision point as a
// core.decide span from the previous hook event, so policy work is not
// charged to the next launch.
func (t *tracer) TransportDecisions(_ *gpu.Device, _ int, _ []gpu.TransportMove, _, _ time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deviceSpan("core", "core.decide")
}

// deviceSpan records a span from the previous hook event to now under the
// open round and returns its length.
func (t *tracer) deviceSpan(layer, name string) int64 {
	at := t.now()
	t.endLocked(t.beginLocked(layer, name, t.deviceParent(), t.last), at)
	d := at - t.last
	t.roundEvents++
	t.last = at
	return d
}

// RoundDone closes the current round interval and opens the next.
func (t *tracer) RoundDone(_ *gpu.Device, _ string, _ int, _, _ time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.now()
	if t.round != 0 {
		t.endLocked(t.round, at)
		t.rounds++
	}
	t.round = t.beginLocked("core", "core.round", t.run, at)
	t.roundEvents = 0
	t.last = at
}

// deviceParent is the open round, or the run outside any (copies issued
// by Load), or the run parent outside any run.
func (t *tracer) deviceParent() int {
	switch {
	case t.round != 0:
		return t.round
	case t.run != 0:
		return t.run
	}
	return t.runParent
}

// children groups spans by parent ID.
func children(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	return kids
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the union of the intervals their children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := children(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.dur() - covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of parent's interval covered by the union of the
// children's intervals (concurrent children may overlap).
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, c := range cs {
		s, e := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// roundOverhead returns the mean host time per round not covered by its
// launch, copy and decision spans.
func roundOverhead(spans []span) time.Duration {
	kids := children(spans)
	var sum int64
	n := 0
	for _, s := range spans {
		if s.Name == "core.round" {
			sum += s.dur() - covered(s, kids[s.ID])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / int64(n))
}

// durations returns the durations of the spans with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeTrace writes the spans, the per-layer self times and the host
// facts to dir as one JSON document and returns its path.
func writeTrace(dir, workload string, seed int64, facts hostFacts, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	self := map[string]int64{}
	for l, d := range selfTimes(spans) {
		self[l] = int64(d)
	}
	doc := struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Host     hostFacts        `json:"host"`
		SelfNS   map[string]int64 `json:"self_ns_by_layer"`
		Spans    []span           `json:"spans"`
	}{workload, seed, facts, self, spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// resetCounts zeroes the hook counters, so they cover only what follows.
func (t *tracer) resetCounts() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.launches, t.warpInstrs, t.launchNS, t.rounds = 0, 0, 0, 0
}

// report adds the host-clock per-layer metrics: hook counts per traced
// pass, launch and round costs, call latencies, set-up phases per set-up,
// and each layer's self time.
func (t *tracer) report(m map[string]float64, spans []span, passes, setups int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m["gpu.launches"] = float64(t.launches) / float64(passes)
	m["core.rounds"] = float64(t.rounds) / float64(passes)
	m["gpu.launch_us"] = ratio(float64(t.launchNS), float64(t.launches)) / 1e3
	m["gpu.host_ns_per_instr"] = ratio(float64(t.launchNS), float64(t.warpInstrs))
	do := durations(spans, "core.do")
	m["core.do_ms_p50"] = median(do) / 1e6
	m["core.do_ms_max"] = quantile(do, 1) / 1e6
	m["core.round_overhead_us"] = float64(roundOverhead(spans)) / 1e3
	m["graph.build_s"] = sum(durations(spans, "graph.build")) / 1e9 / float64(setups)
	m["core.load_s"] = sum(durations(spans, "core.load")) / 1e9 / float64(setups)
	m["graph.ref_s"] = sum(durations(spans, "graph.ref")) / 1e9
	self := selfTimes(spans)
	for _, layer := range []string{"graph", "core", "gpu", "pcie", "service"} {
		m[layer+".self_ms"] = float64(self[layer]) / 1e6
	}
}
