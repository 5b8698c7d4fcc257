// Command pciemon reproduces the paper's §3.3 zero-copy characterization
// interactively: it runs the toy 1D-array traversal under each access
// pattern and prints what the FPGA traffic monitor observes — the request
// mix of Figure 3 and the bandwidths of Figure 4.
//
//	pciemon                 # all patterns
//	pciemon -pattern strided -elems 4194304
//	pciemon -prom           # append the Prometheus exposition of the runs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pciemon: ")

	var (
		pattern = flag.String("pattern", "all", "strided, aligned, misaligned, uvm, or all")
		elems   = flag.Int("elems", 1<<22, "array length in 4-byte elements")
		scale   = flag.Float64("scale", 1.0, "platform scale")
		trace   = flag.Int("trace", 0, "print the first N raw requests of each run (the FPGA's stream view)")
		prom    = flag.Bool("prom", false, "after the runs, print their Prometheus text exposition")
	)
	flag.Parse()

	var col *telemetry.Collector
	if *prom {
		col = telemetry.NewCollector(nil, nil)
	}

	type run struct {
		name      string
		pattern   core.ToyPattern
		transport core.Transport
	}
	all := []run{
		{"strided", core.ToyStrided, core.ZeroCopy},
		{"aligned", core.ToyMergedAligned, core.ZeroCopy},
		{"misaligned", core.ToyMergedMisaligned, core.ZeroCopy},
		{"uvm", core.ToyMergedAligned, core.UVM},
	}
	var runs []run
	for _, r := range all {
		if *pattern == "all" || strings.EqualFold(*pattern, r.name) {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		log.Fatalf("unknown pattern %q", *pattern)
	}

	link := emogi.V100PCIe3(*scale).GPU.Tiers.DRAM().Link
	fmt.Printf("link: %s, memcpy peak %.2f GB/s, RTT %v, %d tags\n\n",
		link.Name, link.MemcpyPeak()/1e9, link.RTT, link.MaxTags)

	for _, r := range runs {
		dev := gpu.NewDevice(emogi.V100PCIe3(*scale).GPU)
		if col != nil {
			dev.SetTelemetry(col)
		}
		if *trace > 0 {
			dev.Monitor().EnableTrace(*trace)
		}
		res, err := core.ToyTraverse(dev, *elems, r.pattern, r.transport)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s (%s over %s)\n", r.name, res.Pattern, r.transport.String())
		fmt.Printf("  PCIe %.2f GB/s   DRAM %.2f GB/s   elapsed %v (simulated)\n",
			res.PCIeBandwidth/1e9, res.DRAMBandwidth/1e9, res.Elapsed)
		fmt.Printf("  requests: %d  payload: %.1f MB  wire: %.1f MB\n",
			res.Snapshot.Requests,
			float64(res.Snapshot.PayloadBytes)/1e6,
			float64(res.Snapshot.WireBytes)/1e6)
		total := float64(res.Snapshot.Requests)
		fmt.Printf("  size mix:")
		for _, size := range []int64{32, 64, 96, 128} {
			if n := res.Snapshot.BySize[size]; n > 0 {
				fmt.Printf("  %dB %.1f%%", size, float64(n)/total*100)
			}
		}
		fmt.Println()
		if *trace > 0 {
			fmt.Printf("  first %d requests:", len(dev.Monitor().Trace()))
			for _, e := range dev.Monitor().Trace() {
				tag := ""
				if e.Bulk {
					tag = "*"
				}
				fmt.Printf(" %d%s", e.Size, tag)
			}
			fmt.Println("   (* = DMA/migration)")
		}
		fmt.Println()
	}

	if col != nil {
		if err := col.Registry().WritePrometheus(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
