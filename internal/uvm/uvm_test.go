package uvm

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
	"repro/internal/pcie"
)

// noPrefetch returns a config with block prefetching disabled, for tests
// that exercise single-page mechanics.
func noPrefetch(capacity int) Config {
	cfg := ConfigWithPaging(capacity, false)
	cfg.BlockPages = 1
	return cfg
}

func newTestBuffer(t *testing.T, pages int) *memsys.Buffer {
	t.Helper()
	a, err := memsys.NewTieredArena(memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()))
	if err != nil {
		t.Fatal(err)
	}
	return a.MustAlloc("uvm", memsys.SpaceUVM, int64(pages*memsys.PageBytes))
}

func TestTouchMigratesOnFirstAccess(t *testing.T) {
	b := newTestBuffer(t, 4)
	m := NewManager(noPrefetch(-1))
	if got, hits, ev := m.Touch(b, 0, 32); got != 1 || hits != 0 || ev != 0 {
		t.Errorf("first touch migrated %d pages with %d hits and %d evictions, want 1, 0 and 0", got, hits, ev)
	}
	if got, hits, ev := m.Touch(b, 64, 32); got != 0 || hits != 1 || ev != 0 {
		t.Errorf("same-page touch migrated %d pages with %d hits and %d evictions, want 0, 1 and 0", got, hits, ev)
	}
	if !isResident(m, b, 0) {
		t.Errorf("page 0 should be resident")
	}
}

func TestTouchSpanningPages(t *testing.T) {
	b := newTestBuffer(t, 4)
	m := NewManager(noPrefetch(-1))
	// Access crossing a page boundary: offset 4090, 32 bytes -> pages 0,1.
	if got, _, _ := m.Touch(b, 4090, 32); got != 2 {
		t.Errorf("boundary-crossing touch migrated %d pages, want 2", got)
	}
	if !isResident(m, b, 0) || !isResident(m, b, 1) {
		t.Errorf("both overlapped pages should be resident")
	}
}

func TestTouchZeroSize(t *testing.T) {
	b := newTestBuffer(t, 1)
	m := NewManager(noPrefetch(-1))
	if got, hits, ev := m.Touch(b, 0, 0); got != 0 || hits != 0 || ev != 0 {
		t.Errorf("zero-size touch migrated %d pages with %d hits and %d evictions", got, hits, ev)
	}
	if m.resident != 0 {
		t.Errorf("zero-size touch should not fault")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	b := newTestBuffer(t, 4)
	m := NewManager(Config{PageBytes: memsys.PageBytes, CapacityPages: 2})
	evictions := 0
	touchPage := func(p int) int {
		migrated, _, ev := m.Touch(b, int64(p*memsys.PageBytes), 8)
		evictions += ev
		return migrated
	}

	touchPage(0)
	touchPage(1)
	touchPage(0) // refresh page 0; page 1 is now LRU
	if got := touchPage(2); got != 1 {
		t.Fatalf("page 2 touch migrated %d, want 1", got)
	}
	if isResident(m, b, 1) {
		t.Errorf("page 1 (LRU) should have been evicted")
	}
	if !isResident(m, b, 0) || !isResident(m, b, 2) {
		t.Errorf("pages 0 and 2 should be resident")
	}
	if evictions != 1 {
		t.Errorf("Evictions = %d, want 1", evictions)
	}
	if m.resident != 2 {
		t.Errorf("Resident = %d, want 2", m.resident)
	}
}

func TestThrashing(t *testing.T) {
	// Working set of 8 pages with capacity 2: round-robin touches must
	// migrate every time (the UVM thrash the paper describes in §2.2).
	b := newTestBuffer(t, 8)
	m := NewManager(Config{PageBytes: memsys.PageBytes, CapacityPages: 2})
	migrations, hits := 0, 0
	for round := 0; round < 3; round++ {
		for p := 0; p < 8; p++ {
			got, h, _ := m.Touch(b, int64(p*memsys.PageBytes), 8)
			if got != 1 {
				t.Fatalf("round %d page %d: migrated %d, want 1 (thrash)", round, p, got)
			}
			migrations += got
			hits += h
		}
	}
	if migrations != 24 {
		t.Errorf("Migrations = %d, want 24", migrations)
	}
	if hits != 0 {
		t.Errorf("HBMHits = %d, want 0 under thrash", hits)
	}
}

func TestZeroCapacityBounces(t *testing.T) {
	b := newTestBuffer(t, 2)
	m := NewManager(Config{PageBytes: memsys.PageBytes, CapacityPages: 0})
	migrations, evictions := 0, 0
	for i := 0; i < 5; i++ {
		got, _, ev := m.Touch(b, 0, 8)
		if got != 1 {
			t.Fatalf("touch %d migrated %d, want 1 (bounce)", i, got)
		}
		migrations += got
		evictions += ev
	}
	if migrations != 5 || evictions != 5 {
		t.Errorf("%d migrations and %d evictions, want 5 of each", migrations, evictions)
	}
	if m.resident != 0 {
		t.Errorf("Resident = %d, want 0", m.resident)
	}
	if isResident(m, b, 0) {
		t.Errorf("page should never stay resident at zero capacity")
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	b := newTestBuffer(t, 100)
	m := NewManager(noPrefetch(-1))
	evictions := 0
	for p := 0; p < 100; p++ {
		_, _, ev := m.Touch(b, int64(p*memsys.PageBytes), 8)
		evictions += ev
	}
	if m.resident != 100 {
		t.Errorf("Resident = %d, want 100", m.resident)
	}
	if evictions != 0 {
		t.Errorf("unlimited capacity should never evict")
	}
}

func TestCostHelpers(t *testing.T) {
	m := NewManager(noPrefetch(-1))
	if got := m.MigrationWireBytes(3); got != 3*memsys.PageBytes {
		t.Errorf("MigrationWireBytes(3) = %d", got)
	}
	cpu := m.FaultCPUTime(10)
	if cpu <= 0 {
		t.Errorf("FaultCPUTime should be positive, got %v", cpu)
	}
	if got := m.FaultCPUTime(0); got != 0 {
		t.Errorf("FaultCPUTime(0) = %v, want 0", got)
	}
}

func TestDefaultConfigCalibration(t *testing.T) {
	cfg := ConfigWithPaging(100, false)
	if cfg.PageBytes != 4096 {
		t.Errorf("PageBytes = %d, want 4096", cfg.PageBytes)
	}
	// Calibration anchor: streaming UVM bandwidth should land near the
	// paper's ~9.1 GB/s on PCIe 3.0. 4096B / (4096B/12.3GB/s + cpu).
	wire := 4096.0 / 12.34e9
	bw := 4096.0 / (wire + cfg.FaultCPUSeconds)
	if bw < 8.6e9 || bw > 9.6e9 {
		t.Errorf("streaming UVM bandwidth = %.2f GB/s, want ~9.1", bw/1e9)
	}
	g := ConfigWithPaging(100, true)
	if !g.GPUDriven {
		t.Error("ConfigWithPaging(_, true) should select GPU-driven paging")
	}
	g.GPUDriven = false
	if g != cfg {
		t.Error("paging selector must be the only difference between the models")
	}
}

// Invariant: resident count never exceeds capacity; migrations - evictions
// equals residency; the residency map matches the resident count.
func TestLRUInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pages := 32
	b := newTestBuffer(t, pages)
	for _, capacity := range []int{1, 2, 7, 16, 100} {
		m := NewManager(Config{PageBytes: memsys.PageBytes, CapacityPages: capacity})
		migrations, evictions := 0, 0
		for i := 0; i < 2000; i++ {
			off := rng.Int63n(int64(pages*memsys.PageBytes) - 64)
			mig, _, ev := m.Touch(b, off, 1+rng.Intn(64))
			migrations += mig
			evictions += ev
			if capacity > 0 && m.resident > capacity {
				t.Fatalf("capacity %d exceeded: resident=%d", capacity, m.resident)
			}
			if migrations-evictions != m.resident {
				t.Fatalf("migrations-evictions=%d != resident=%d",
					migrations-evictions, m.resident)
			}
		}
		// The residency map agrees with the resident count.
		if len(m.lru) != m.resident {
			t.Fatalf("capacity %d: %d pages mapped != resident %d", capacity, len(m.lru), m.resident)
		}
	}
}

func TestBlockPrefetch(t *testing.T) {
	b := newTestBuffer(t, 64)
	cfg := ConfigWithPaging(-1, false)
	cfg.BlockPages = 16
	m := NewManager(cfg)
	// Touching one byte in page 3 migrates its whole aligned 16-page block.
	if got, _, _ := m.Touch(b, 3*memsys.PageBytes, 8); got != 16 {
		t.Fatalf("block fault migrated %d pages, want 16", got)
	}
	for p := 0; p < 16; p++ {
		if !isResident(m, b, p) {
			t.Errorf("page %d of the block should be resident", p)
		}
	}
	if isResident(m, b, 16) {
		t.Errorf("page outside the block should not be resident")
	}
	// Any further touch within the block is free.
	if got, _, _ := m.Touch(b, 15*memsys.PageBytes, 8); got != 0 {
		t.Errorf("in-block touch migrated %d pages, want 0", got)
	}
	// A touch in the next block pulls exactly that block.
	if got, _, _ := m.Touch(b, 20*memsys.PageBytes, 8); got != 16 {
		t.Errorf("next-block touch migrated %d pages, want 16", got)
	}
}

func TestBlockPrefetchClippedAtBufferEnd(t *testing.T) {
	b := newTestBuffer(t, 20) // last block has only 4 pages
	cfg := ConfigWithPaging(-1, false)
	cfg.BlockPages = 16
	m := NewManager(cfg)
	if got, _, _ := m.Touch(b, 17*memsys.PageBytes, 8); got != 4 {
		t.Errorf("clipped block migrated %d pages, want 4", got)
	}
}

func TestBlockPrefetchSkipsResident(t *testing.T) {
	b := newTestBuffer(t, 32)
	m := NewManager(Config{PageBytes: memsys.PageBytes, CapacityPages: -1,
		FaultCPUSeconds: 117e-9, BlockPages: 4})
	m.Touch(b, 1*memsys.PageBytes, 8) // pages 0-3 via block fault
	if got, _, _ := m.Touch(b, 2*memsys.PageBytes, 8); got != 0 {
		t.Errorf("resident block re-migrated %d pages", got)
	}
	if m.resident != 4 {
		t.Errorf("resident = %d, want 4", m.resident)
	}
	// Under capacity pressure the block fill itself evicts: a 4-page block
	// into a 3-page budget leaves 3 resident.
	m2 := NewManager(Config{PageBytes: memsys.PageBytes, CapacityPages: 3,
		FaultCPUSeconds: 117e-9, BlockPages: 4})
	if got, _, ev := m2.Touch(b, 0, 8); got != 4 || ev != 1 {
		t.Fatalf("block fault migrated %d and evicted %d, want 4 and 1", got, ev)
	}
	if m2.resident != 3 {
		t.Fatalf("resident = %d, want 3", m2.resident)
	}
}

// TestBlockPrefetchStreamingNoWaste: a sequential scan with prefetching
// moves each page exactly once — block migration does not change the
// streaming calibration.
func TestBlockPrefetchStreamingNoWaste(t *testing.T) {
	pages := 64
	b := newTestBuffer(t, pages)
	cfg := ConfigWithPaging(-1, false)
	m := NewManager(cfg)
	total, hits := 0, 0
	for p := 0; p < pages; p++ {
		migrated, h, _ := m.Touch(b, int64(p*memsys.PageBytes), 8)
		total += migrated
		hits += h
	}
	if total != pages {
		t.Errorf("streaming migrated %d pages, want %d", total, pages)
	}
	// Every page but the first of each prefetch block was already resident.
	if want := pages - pages/cfg.BlockPages; hits != want {
		t.Errorf("streaming hits = %d, want %d", hits, want)
	}
}

// isResident reports whether page p of b is resident in m's GPU memory.
func isResident(m *Manager, b *memsys.Buffer, p int) bool {
	_, ok := m.lru[pageKey{b, p}]
	return ok
}
