package gpu

import (
	"testing"
	"time"

	"repro/internal/memsys"
	"repro/internal/pcie"
	"repro/internal/race"
)

func telemetryTestDevice(workers int) *Device {
	return NewDevice(Config{
		Name:    "tel-test",
		Workers: workers,
		Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
}

// countingTelemetry records how often each hook fired.
type countingTelemetry struct {
	begins, ends, kernels, copies, rounds int
	lastLabels                            RunLabels
	lastWorkers, lastMax                  int
	lastStart, lastEnd                    time.Duration
}

func (c *countingTelemetry) RunBegin(dev *Device, labels RunLabels) {
	c.begins++
	c.lastLabels = labels
}
func (c *countingTelemetry) RunEnd(dev *Device) { c.ends++ }
func (c *countingTelemetry) KernelDone(dev *Device, ks *KernelStats, workers, maxWorkers int, start, end time.Duration) {
	c.kernels++
	c.lastWorkers, c.lastMax = workers, maxWorkers
	c.lastStart, c.lastEnd = start, end
}
func (c *countingTelemetry) CopyDone(dev *Device, toDevice bool, bytes int64, start, end time.Duration) {
	c.copies++
}
func (c *countingTelemetry) RoundDone(dev *Device, name string, round int, start, end time.Duration) {
	c.rounds++
}

// TestTelemetryHooksFire checks each hook point fires with sane arguments.
func TestTelemetryHooksFire(t *testing.T) {
	d := telemetryTestDevice(2)
	tel := &countingTelemetry{}
	d.SetTelemetry(tel)
	if d.Telemetry() != Telemetry(tel) {
		t.Fatalf("Telemetry() did not return the attached sink")
	}

	d.BeginRun(RunLabels{App: "test", Variant: "v", Transport: "zerocopy", Graph: "g"})
	buf := d.Arena().MustAlloc("buf", memsys.SpaceHostPinned, 1<<12)
	defer d.Arena().Free(buf)

	roundStart := d.Clock()
	ks := d.Launch("k", 4, func(w *Warp) {
		var idx [WarpSize]int64
		for l := range idx {
			idx[l] = int64(w.ID()*WarpSize + l)
		}
		w.GatherU32(buf, &idx, MaskFull)
	})
	d.EmitRound("k", 0, roundStart)
	d.CopyToDevice(4096)
	d.CopyToHost(4096)
	d.EndRun()

	if tel.begins != 1 || tel.ends != 1 {
		t.Errorf("begins/ends = %d/%d, want 1/1", tel.begins, tel.ends)
	}
	if tel.lastLabels.App != "test" || tel.lastLabels.Graph != "g" {
		t.Errorf("labels not forwarded: %+v", tel.lastLabels)
	}
	if tel.kernels != 1 {
		t.Errorf("kernels = %d, want 1", tel.kernels)
	}
	if tel.lastWorkers < 1 || tel.lastWorkers > tel.lastMax {
		t.Errorf("workers %d outside [1, %d]", tel.lastWorkers, tel.lastMax)
	}
	if tel.lastMax != 2 {
		t.Errorf("maxWorkers = %d, want configured 2", tel.lastMax)
	}
	if tel.lastEnd <= tel.lastStart {
		t.Errorf("kernel interval [%v, %v] not positive", tel.lastStart, tel.lastEnd)
	}
	if got, want := tel.lastEnd-tel.lastStart, ks.Elapsed; got != want {
		t.Errorf("kernel interval %v does not match stats elapsed %v", got, want)
	}
	if tel.copies != 2 {
		t.Errorf("copies = %d, want 2", tel.copies)
	}
	if tel.rounds != 1 {
		t.Errorf("rounds = %d, want 1", tel.rounds)
	}
}

// TestDisabledTelemetryHooksDoNotAllocate is the zero-overhead contract:
// with no sink attached, the hook call sites must not allocate at all.
func TestDisabledTelemetryHooksDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	d := telemetryTestDevice(1)
	labels := RunLabels{App: "BFS", Variant: "Merged+Aligned", Transport: "zerocopy", Graph: "GK"}
	allocs := testing.AllocsPerRun(100, func() {
		d.BeginRun(labels)
		d.EmitRound("bfs", 3, d.Clock())
		d.EndRun()
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry hooks allocate %.1f objects per run, want 0", allocs)
	}
}

// launchOnce runs one small gather kernel, for the telemetry-overhead
// benchmarks below.
func launchOnce(d *Device, buf *memsys.Buffer) {
	d.Launch("bench", 8, func(w *Warp) {
		var idx [WarpSize]int64
		for l := range idx {
			idx[l] = int64((w.ID()*WarpSize + l) % 64)
		}
		w.GatherU32(buf, &idx, MaskFull)
	})
}

// BenchmarkLaunchTelemetryDisabled measures the hot launch path with no
// sink attached; compare allocs/op against BenchmarkLaunchTelemetryEnabled
// to see the exporter's cost, and against a pre-telemetry checkout to
// confirm the disabled path is free.
func BenchmarkLaunchTelemetryDisabled(b *testing.B) {
	d := telemetryTestDevice(1)
	buf := d.Arena().MustAlloc("buf", memsys.SpaceHostPinned, 1<<12)
	defer d.Arena().Free(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		launchOnce(d, buf)
	}
}

type nopTelemetry struct{}

func (nopTelemetry) RunBegin(*Device, RunLabels) {}
func (nopTelemetry) RunEnd(*Device)              {}
func (nopTelemetry) KernelDone(*Device, *KernelStats, int, int, time.Duration, time.Duration) {
}
func (nopTelemetry) CopyDone(*Device, bool, int64, time.Duration, time.Duration) {}
func (nopTelemetry) RoundDone(*Device, string, int, time.Duration, time.Duration) {
}

// BenchmarkLaunchTelemetryEnabled is the same launch with a no-op sink, so
// the delta to Disabled is exactly the hook dispatch overhead.
func BenchmarkLaunchTelemetryEnabled(b *testing.B) {
	d := telemetryTestDevice(1)
	d.SetTelemetry(nopTelemetry{})
	buf := d.Arena().MustAlloc("buf", memsys.SpaceHostPinned, 1<<12)
	defer d.Arena().Free(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		launchOnce(d, buf)
	}
}
