package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCounterExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("emogi_kernel_launches_total", "Kernel launches completed.",
		Labels{"app": "BFS", "graph": "GK"}).Add(3)
	reg.Counter("emogi_kernel_launches_total", "ignored on reuse",
		Labels{"app": "SSSP", "graph": "GK"}).Inc()

	out := render(t, reg)
	for _, want := range []string{
		"# HELP emogi_kernel_launches_total Kernel launches completed.",
		"# TYPE emogi_kernel_launches_total counter",
		`emogi_kernel_launches_total{app="BFS",graph="GK"} 3`,
		`emogi_kernel_launches_total{app="SSSP",graph="GK"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryLabelCanonicalization(t *testing.T) {
	reg := NewRegistry()
	// Same label set in different construction order must address one series.
	reg.Counter("x_total", "h", Labels{"b": "2", "a": "1"}).Add(1)
	reg.Counter("x_total", "h", Labels{"a": "1", "b": "2"}).Add(1)
	out := render(t, reg)
	if !strings.Contains(out, `x_total{a="1",b="2"} 2`) {
		t.Errorf("labels not canonicalized:\n%s", out)
	}
}

func TestRegistryEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "line1\nline2 \\ back", Labels{"v": "a\"b\\c\nd"}).Inc()
	out := render(t, reg)
	if !strings.Contains(out, `# HELP esc_total line1\nline2 \\ back`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegistryGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("emogi_util_ratio", "Utilization.", nil)
	g.Set(0.5)
	g.Set(0.25)
	out := render(t, reg)
	if !strings.Contains(out, "# TYPE emogi_util_ratio gauge\n") {
		t.Errorf("missing gauge TYPE:\n%s", out)
	}
	if !strings.Contains(out, "emogi_util_ratio 0.25\n") {
		t.Errorf("gauge must report last value:\n%s", out)
	}
}

func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("emogi_req_size_bytes", "Sizes.", []float64{32, 64, 128}, Labels{"app": "toy"})
	h.ObserveN(32, 2)
	h.Observe(96)  // falls into le=128
	h.Observe(200) // falls into +Inf
	out := render(t, reg)
	for _, want := range []string{
		"# TYPE emogi_req_size_bytes histogram",
		`emogi_req_size_bytes_bucket{app="toy",le="32"} 2`,
		`emogi_req_size_bytes_bucket{app="toy",le="64"} 2`,
		`emogi_req_size_bytes_bucket{app="toy",le="128"} 3`,
		`emogi_req_size_bytes_bucket{app="toy",le="+Inf"} 4`,
		`emogi_req_size_bytes_sum{app="toy"} 360`,
		`emogi_req_size_bytes_count{app="toy"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("histogram exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 4 || h.sum != 360 {
		t.Errorf("histogram accessors: count=%d sum=%v", h.Count(), h.sum)
	}

}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total", "h", nil)
	defer func() {
		if recover() == nil {
			t.Errorf("reusing a name with a different kind must panic")
		}
	}()
	reg.Gauge("m_total", "h", nil)
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter("conc_total", "h", Labels{"w": fmt.Sprint(i % 2)}).Inc()
				reg.Histogram("conc_hist", "h", []float64{1}, nil).Observe(float64(j))
			}
		}(i)
	}
	wg.Wait()
	series := parseSeries(t, render(t, reg))
	total := mustUint(t, series[`conc_total{w="0"}`]) + mustUint(t, series[`conc_total{w="1"}`])
	if total != 800 {
		t.Errorf("concurrent counter total = %d, want 800", total)
	}
}

// TestExpositionFormatValid runs every rendered line through a strict
// line-level validator of the text exposition format.
func TestExpositionFormatValid(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "help a", Labels{"k": "v"}).Add(7)
	reg.Gauge("b_ratio", "help b", nil).Set(1.5)
	reg.Histogram("c_bytes", "help c", []float64{10, 20}, Labels{"x": "y"}).Observe(15)
	validateExposition(t, render(t, reg))
}

// --- shared test helpers ---

// render writes the registry to a string.
func render(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// parseSeries maps "name{labels}" to the rendered value string for every
// sample line of an exposition.
func parseSeries(t *testing.T, text string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		out[line[:sp]] = line[sp+1:]
	}
	return out
}

func mustUint(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("expected unsigned integer sample, got %q: %v", s, err)
	}
	return v
}

// validateExposition asserts the text parses as the Prometheus exposition
// format: HELP/TYPE comments with known types, sample lines shaped
// name{label="value",...} value, metric names matching the spec charset,
// every sample preceded by its family's TYPE line.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	typed := make(map[string]string)
	sawSample := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			if name, _, ok := strings.Cut(rest, " "); !ok || !validMetricName(name) {
				t.Errorf("bad HELP line %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				t.Errorf("bad TYPE line %q", line)
				continue
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("unknown TYPE %q in %q", typ, line)
			}
			typed[name] = typ
		case line == "":
			t.Errorf("blank line inside exposition")
		default:
			sawSample++
			sp := strings.LastIndex(line, " ")
			if sp < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			series, value := line[:sp], line[sp+1:]
			name := series
			if i := strings.IndexByte(series, '{'); i >= 0 {
				if !strings.HasSuffix(series, "}") {
					t.Errorf("unbalanced label braces in %q", line)
				}
				name = series[:i]
				validateLabels(t, series[i+1:len(series)-1], line)
			}
			if !validMetricName(name) {
				t.Errorf("invalid metric name in %q", line)
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if _, ok := typed[name]; !ok {
				if _, ok := typed[base]; !ok {
					t.Errorf("sample %q has no TYPE line", line)
				}
			}
			if value != "+Inf" && value != "-Inf" && value != "NaN" {
				if _, err := strconv.ParseFloat(value, 64); err != nil {
					t.Errorf("unparseable sample value %q in %q", value, line)
				}
			}
		}
	}
	if sawSample == 0 {
		t.Errorf("exposition contains no samples")
	}
}

// validateLabels checks the k="v" comma-joined body of a label set.
func validateLabels(t *testing.T, body, line string) {
	t.Helper()
	rest := body
	for rest != "" {
		eq := strings.Index(rest, "=\"")
		if eq <= 0 || !validLabelName(rest[:eq]) {
			t.Errorf("bad label name in %q", line)
			return
		}
		rest = rest[eq+2:]
		// Find closing unescaped quote.
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			t.Errorf("unterminated label value in %q", line)
			return
		}
		rest = rest[end+1:]
		if rest == "" {
			return
		}
		if !strings.HasPrefix(rest, ",") {
			t.Errorf("missing label separator in %q", line)
			return
		}
		rest = rest[1:]
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
