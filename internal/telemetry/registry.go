// Package telemetry is the simulator's observability subsystem: a
// dependency-free Prometheus-text-exposition metrics registry, a Chrome
// trace-event timeline writer, and a Collector that implements the gpu
// package's Telemetry hook interface to snapshot every simulated quantity —
// per-launch kernel stats deltas, the PCIe monitor's request-size histogram
// and wire bytes, UVM fault and eviction counts, and launch-engine worker
// utilization — under the emogi_ metric namespace with app / transport /
// variant / graph labels.
//
// The design mirrors a production GPU metrics exporter (one registry, one
// collector per signal source, an HTTP /metrics endpoint) so a simulated
// run is inspectable exactly the way a real fleet GPU is, but it reports
// the *simulated* clock and the *simulated* interconnect: the quantities
// the paper needed an FPGA PCIe traffic monitor to observe (§3.2, §5).
//
// Telemetry is strictly opt-in. A device with no sink attached pays a
// single nil check per hook site and zero allocations (see gpu.Telemetry),
// preserving the parallel engine's bit-for-bit determinism contract.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels is one metric series' label set. Keys and values are rendered in
// sorted key order, so any two equal maps address the same series.
type Labels map[string]string

// labelKey renders labels canonically for series lookup and exposition:
// `key1="v1",key2="v2"` with keys sorted and values escaped.
func labelKey(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(ls[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes for label values:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the exposition-format escapes for HELP text.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// metricKind is the TYPE line value of a metric family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name: its metadata and every labeled series.
type family struct {
	help string
	kind metricKind

	series map[string]metric // keyed by labelKey
	order  []string          // series keys in creation order
}

// metric is one series of a family; each kind renders itself.
type metric interface {
	write(w io.Writer, name, lk string) error
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in creation order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getFamily returns the named family, creating it on first use and
// panicking when a name is reused with a different kind (a programming
// error worth failing loudly on).
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{help: help, kind: kind, series: make(map[string]metric)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// Counter is a monotonically increasing integer series. The simulator's
// quantities are exact integer counts (requests, bytes, launches), so
// counters hold uint64 and render without float formatting — a scrape can
// be compared bit-for-bit against the bench tables.
type Counter struct {
	mu sync.Mutex
	v  uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	c.mu.Lock()
	c.v += n
	c.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *Counter) write(w io.Writer, name, lk string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, wrapLabels(lk), c.Value())
	return err
}

// FloatCounter is a monotonically increasing float series, for accumulated
// simulated seconds.
type FloatCounter struct {
	mu sync.Mutex
	v  float64
}

// Add increments the counter by v (which must be non-negative).
func (c *FloatCounter) Add(v float64) {
	c.mu.Lock()
	c.v += v
	c.mu.Unlock()
}

// Value returns the current value.
func (c *FloatCounter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *FloatCounter) write(w io.Writer, name, lk string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, wrapLabels(lk), formatFloat(c.Value()))
	return err
}

// Gauge is a series that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func (g *Gauge) write(w io.Writer, name, lk string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, wrapLabels(lk), formatFloat(g.Value()))
	return err
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// each le bucket counts observations ≤ its bound, plus an implicit +Inf).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending, excluding +Inf
	buckets []uint64  // len(bounds)+1; last is +Inf
	count   uint64
	sum     float64
}

// newHistogram copies and sorts the bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]uint64, len(bs)+1)}
}

// Observe records one observation of value v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of value v.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i] += n
	h.count += n
	h.sum += v * float64(n)
	h.mu.Unlock()
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) write(w io.Writer, name, lk string) error {
	h.mu.Lock()
	bounds := h.bounds
	buckets := append([]uint64(nil), h.buckets...)
	count, sum := h.count, h.sum
	h.mu.Unlock()

	cum := uint64(0)
	for i, b := range bounds {
		cum += buckets[i]
		if err := writeBucket(w, name, lk, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += buckets[len(bounds)]
	if err := writeBucket(w, name, lk, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, wrapLabels(lk), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, wrapLabels(lk), count)
	return err
}

// writeBucket renders one cumulative le bucket, splicing the le label into
// the series' label set.
func writeBucket(w io.Writer, name, lk, le string, cum uint64) error {
	lel := `le="` + le + `"`
	if lk != "" {
		lel = lk + "," + lel
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, lel, cum)
	return err
}

// Counter returns the counter series for (name, labels), creating the
// family and series on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	lk := labelKey(labels)
	if m, ok := f.series[lk]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[lk] = c
	f.order = append(f.order, lk)
	return c
}

// FloatCounter returns the float-counter series for (name, labels). It
// shares the counter TYPE, so mixing Counter and FloatCounter under one
// name is rejected at the family level only if kinds differ — use distinct
// names for integer and float counters.
func (r *Registry) FloatCounter(name, help string, labels Labels) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	lk := labelKey(labels)
	if m, ok := f.series[lk]; ok {
		return m.(*FloatCounter)
	}
	c := &FloatCounter{}
	f.series[lk] = c
	f.order = append(f.order, lk)
	return c
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	lk := labelKey(labels)
	if m, ok := f.series[lk]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[lk] = g
	f.order = append(f.order, lk)
	return g
}

// Histogram returns the histogram series for (name, labels) with the given
// upper bucket bounds (+Inf is implicit). Bounds are fixed at series
// creation; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram)
	lk := labelKey(labels)
	if m, ok := f.series[lk]; ok {
		return m.(*Histogram)
	}
	h := newHistogram(bounds)
	f.series[lk] = h
	f.order = append(f.order, lk)
	return h
}

// WritePrometheus renders every family in the text exposition format:
// # HELP and # TYPE lines followed by one line per series, families in
// name order, series in creation order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		keys := append([]string(nil), f.order...)
		series := make([]metric, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		help, kind := f.help, f.kind
		r.mu.Unlock()

		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind); err != nil {
			return err
		}
		for i, m := range series {
			if err := m.write(w, name, keys[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// wrapLabels renders a non-empty label key as {k="v",...}.
func wrapLabels(lk string) string {
	if lk == "" {
		return ""
	}
	return "{" + lk + "}"
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
