// Command perfbench is the repository benchmark. It runs one workload
// from a seed, measures the simulator's layers from outside through their
// public calls and counters, checks every output against the CPU
// reference, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// telemetry off; with -trace 1 a separate traced run reports the
// per-layer metrics and writes its spans to -out. Run it from the
// repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload zc-traverse --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

//go:embed schema.json
var schemaJSON []byte

// schema is the benchmark's metric and workload catalogue: units, clocks,
// better directions and which end-to-end metric each layer metric moves.
type schema struct {
	Workloads []struct {
		Name string `json:"name"`
		Loop string `json:"loop"`
	} `json:"workloads"`
	Metrics []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Unit   string `json:"unit"`
		Clock  string `json:"clock"`
		Better string `json:"better"`
	} `json:"metrics"`
}

func loadSchema() (*schema, error) {
	var s schema
	if err := json.Unmarshal(schemaJSON, &s); err != nil {
		return nil, fmt.Errorf("schema.json: %w", err)
	}
	return &s, nil
}

// workers is the device's launch worker count. GOMAXPROCS is capped to
// the same number (or nproc, when smaller) so runs on larger hosts stay
// comparable.
const workers = 2

// runOpts are one run's inputs.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload measured.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	spans     []span
}

var workloads = map[string]func(context.Context, runOpts) (*outcome, error){
	"zc-traverse":     func(ctx context.Context, o runOpts) (*outcome, error) { return runLibrary(ctx, zcTraverse, o) },
	"adaptive-paging": func(ctx context.Context, o runOpts) (*outcome, error) { return runLibrary(ctx, adaptivePaging, o) },
	"serve-mix":       runServeMix,
}

// hostFacts identify the recording host; results from different hosts
// are not like for like.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Workers    int    `json:"workers"`
}

func readHostFacts() hostFacts {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpu,
		GoVersion:  runtime.Version(),
		Workers:    workers,
	}
}

func main() {
	workload := flag.String("workload", "", "workload: zc-traverse, adaptive-paging or serve-mix")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	out := flag.String("out", ".bench_build/traces", "directory for the traced run's spans")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, out string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	sch, err := loadSchema()
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	facts := readHostFacts()
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s workers=%d\n",
		facts.NProc, facts.GOMAXPROCS, facts.CPU, facts.GoVersion, facts.Workers)
	for _, w := range sch.Workloads {
		if w.Name == workload {
			fmt.Printf("workload: %s (%s) seed=%d seconds=%g trace=%d\n", workload, w.Loop, seed, seconds, trace)
		}
	}

	o, err := fn(context.Background(), runOpts{seed: seed, seconds: seconds, trace: trace == 1})
	if err != nil {
		return err
	}
	if trace == 1 {
		path, err := writeTrace(out, workload, seed, facts, o.spans)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(o.spans), path)
	}

	kind := "end_to_end"
	if trace == 1 {
		kind = "per_layer"
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range sch.Metrics {
		if m.Kind != kind {
			continue
		}
		v, ok := o.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s produced no value for %s", workload, m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
		fmt.Printf("metric %-28s %14.6g %-6s (%s)\n", m.Name, v, m.Unit, m.Clock)
	}
	correct := o.failed == 0
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(b))
	if !correct {
		os.Exit(1)
	}
	return nil
}
