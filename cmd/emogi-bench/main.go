// Command emogi-bench regenerates the paper's evaluation: every table and
// figure of §5 (plus the §3.3 toy characterization), printed as text tables
// and optionally written to a results directory.
//
//	emogi-bench                 # full run at the standard 1:1000 scale
//	emogi-bench -quick          # reduced scale for a fast smoke run
//	emogi-bench -only fig9,fig10
//	emogi-bench -o results/ -json -csv
//	emogi-bench -metrics-addr :9400 -trace timeline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	emogi "repro"
	"repro/internal/bench"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emogi-bench: ")

	var (
		scale   = flag.Float64("scale", 1.0, "dataset scale (1.0 = standard 1:1000 reduction)")
		seed    = flag.Int64("seed", 42, "generator and source seed")
		sources = flag.Int("sources", 3, "sources averaged per measurement (paper uses 64)")
		quick   = flag.Bool("quick", false, "use the reduced quick configuration")
		workers = flag.Int("workers", 0, "host goroutines per kernel launch (0 = GOMAXPROCS, 1 = serial; results are identical)")
		only    = flag.String("only", "", "comma-separated subset: table1,table2,table3,transport,reorder,fig3..fig12,ablation-*")
		reorder = flag.Int("reorder-window", bench.DefaultReorderWindow,
			"window size in 32B sectors for the -only reorder comparison (off-vs-on legs)")
		ablations = flag.Bool("ablations", false, "also run the design-choice ablations")
		outDir    = flag.String("o", "", "also write each table to <dir>/<id>.txt")
		csv       = flag.Bool("csv", false, "with -o, also write <dir>/<id>.csv")
		jsonOut   = flag.Bool("json", false, "with -o, also write <dir>/<id>.json and a run.json summary")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus metrics on this address (e.g. :9400) during the run; keeps serving after it until interrupted")
		tracePath = flag.String("trace", "", "write a Chrome trace-event timeline of the run to this file")
		tiers     = flag.String("tiers", "2tier",
			"memory-tier stack applied to every system: 2tier (the classic machine) or 3tier-cxl (adds CXL-class external memory)")
		paging = flag.String("paging", "cpu",
			"UVM paging model: cpu (serialized fault handler) or gpu (GPU-driven page fetch)")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Seed: *seed, Sources: *sources}
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Workers = *workers
	if _, err := emogi.TierStackByName(*tiers); err != nil {
		log.Fatal(err)
	}
	cfg.TierStack = *tiers
	var err error
	if cfg.GPUDrivenPaging, err = emogi.ParsePaging(*paging); err != nil {
		log.Fatal(err)
	}

	// Telemetry: one collector observes every system the harness builds.
	var (
		tracer *telemetry.Tracer
		srv    *telemetry.Server
	)
	if *metrics != "" || *tracePath != "" {
		if *tracePath != "" {
			tracer = telemetry.NewTracer()
		}
		col := telemetry.NewCollector(nil, tracer)
		cfg.Telemetry = col
		telemetry.RegisterBuildInfo(col.Registry())
		if *metrics != "" {
			var err error
			srv, err = telemetry.ListenAndServe(*metrics, col.Registry())
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("serving metrics at %s", srv.URL())
		}
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	// The ablations run only when named (or under -ablations with no
	// -only); every other table runs unless -only leaves it out.
	selected := func(id string) bool {
		if strings.HasPrefix(id, "ablation-") {
			if len(want) == 0 {
				return *ablations
			}
			return want[id] || want["ablations"]
		}
		return len(want) == 0 || want[id]
	}

	ds := bench.NewDatasets(cfg)
	var emitted []string
	emit := func(id string, t *bench.Table) {
		emitted = append(emitted, id)
		fmt.Println(t.Render())
		if *outDir != "" {
			if err := bench.WriteTable(*outDir, id, t, *csv, *jsonOut); err != nil {
				log.Fatal(err)
			}
		}
	}

	start := time.Now()
	fmt.Printf("EMOGI evaluation harness  scale=%.3g sources=%d seed=%d\n\n",
		cfg.Scale, cfg.Sources, cfg.Seed)

	if err := bench.Generate(ds, selected, *reorder, log.Printf, emit); err != nil {
		log.Fatal(err)
	}

	elapsed := time.Since(start).Round(time.Millisecond)

	if *jsonOut && *outDir != "" {
		summary := struct {
			Scale     float64  `json:"scale"`
			Seed      int64    `json:"seed"`
			Sources   int      `json:"sources"`
			Workers   int      `json:"workers"`
			Tables    []string `json:"tables"`
			WallClock string   `json:"wall_clock"`
		}{cfg.Scale, cfg.Seed, cfg.Sources, cfg.Workers, emitted, elapsed.String()}
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, "run.json"), append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d trace events to %s", tracer.Len(), *tracePath)
	}

	fmt.Printf("done in %v (wall clock)\n", elapsed)

	if srv != nil {
		// Keep the exporter scrapeable after the run so one-shot consumers
		// (CI smoke jobs, a quick curl) can read the final counters.
		log.Printf("run complete; still serving metrics at %s (interrupt to exit)", srv.URL())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.Close()
	}
}
