package memsys

// DRAMModel captures the service characteristics of a DRAM device: host
// DDR4 behind the PCIe root complex, or GPU HBM2. It is an analytic model —
// callers account served bytes per kernel and convert them to time with
// ServiceTime.
type DRAMModel struct {
	Name string
	// BytesPerSec is the sustainable sequential bandwidth.
	BytesPerSec float64
	// MinAccessBytes is the smallest burst the device can transfer; smaller
	// requests are rounded up (the paper's §3.3: a 32-byte PCIe read costs
	// a full 64-byte DDR4 burst, halving effective DRAM bandwidth).
	MinAccessBytes int
}

// DDR4Quad returns the paper's evaluation host memory: DDR4-2933 in quad
// channel mode (Table 1), ~85 GB/s aggregate with 64-byte bursts. Only the
// 64-byte burst size materially affects results; the channel bandwidth is
// far above the PCIe ceiling.
func DDR4Quad() DRAMModel {
	return DRAMModel{Name: "DDR4-2933 quad", BytesPerSec: 85e9, MinAccessBytes: 64}
}

// HBM2V100 returns V100-class HBM2 (900 GB/s, 32-byte sectors).
func HBM2V100() DRAMModel {
	return DRAMModel{Name: "HBM2 V100", BytesPerSec: 900e9, MinAccessBytes: 32}
}

// HBM2eA100 returns A100-class HBM2e (1555 GB/s).
func HBM2eA100() DRAMModel {
	return DRAMModel{Name: "HBM2e A100", BytesPerSec: 1555e9, MinAccessBytes: 32}
}

// GDDR5XTitanXp returns Titan Xp GDDR5X (547 GB/s), used for the HALO
// comparison platform (Table 3).
func GDDR5XTitanXp() DRAMModel {
	return DRAMModel{Name: "GDDR5X Titan Xp", BytesPerSec: 547e9, MinAccessBytes: 32}
}

// ServedBytes returns the bytes the device actually transfers to satisfy a
// request of the given size: the size rounded up to whole minimum bursts.
func (d DRAMModel) ServedBytes(requestBytes int) int64 {
	if requestBytes <= 0 {
		return 0
	}
	m := d.MinAccessBytes
	if m <= 0 {
		return int64(requestBytes)
	}
	bursts := (requestBytes + m - 1) / m
	return int64(bursts * m)
}

// ServiceSeconds converts a served-byte total into seconds of device time.
func (d DRAMModel) ServiceSeconds(servedBytes int64) float64 {
	if d.BytesPerSec <= 0 || servedBytes <= 0 {
		return 0
	}
	return float64(servedBytes) / d.BytesPerSec
}
