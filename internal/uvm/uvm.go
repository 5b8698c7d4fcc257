// Package uvm simulates NVIDIA's Unified Virtual Memory subsystem as the
// paper's baseline transport: on-demand migration of 4KB pages from host to
// GPU memory on first touch, LRU eviction under oversubscription, and a
// serialized CPU-side fault handler whose fixed per-page cost is what keeps
// UVM from scaling with faster interconnects (§5.5 / Figure 12).
//
// The edge-list buffers the baselines place in UVM space are read-only and
// advised cudaMemAdviseSetReadMostly, so migration duplicates pages into
// GPU memory with no writeback or invalidation traffic — exactly the
// paper's "optimized UVM" configuration (§5.1.2(a)).
package uvm

import (
	"time"

	"repro/internal/memsys"
)

// Config holds the UVM driver model parameters.
type Config struct {
	// PageBytes is the migration granularity (4KB system pages).
	PageBytes int

	// CapacityPages is the number of pages of GPU memory available to hold
	// migrated UVM pages (GPU memory left over after explicit allocations).
	// Zero means no page can be cached (every touch bounces: the page is
	// migrated, used, and immediately reclaimed). Negative means unlimited.
	CapacityPages int

	// FaultCPUSeconds is the effective serialized CPU cost per migrated
	// page: fault interception, batch handling, and page-table updates in
	// the single-threaded UVM driver, amortized over typical batch sizes.
	// Calibrated so a streaming UVM read reaches the paper's measured
	// ~9.1 GB/s on PCIe 3.0 (Figure 4): 4096B / 9.1 GB/s - 4096B / 12.3
	// GB/s ≈ 117ns.
	FaultCPUSeconds float64

	// BlockPages is the driver's migration granule in pages: on a fault,
	// the whole aligned block containing the faulting page is migrated
	// (the UVM driver's tree-based density prefetcher pulls aligned
	// power-of-two regions, up to 2MB). This is the main source of the
	// paper's UVM I/O read amplification on scattered accesses (Figure
	// 10): one needed neighbor list drags in its whole block. Sequential
	// streams are unaffected (every prefetched page gets used). Values
	// <= 1 disable prefetching.
	BlockPages int

	// GPUDriven selects GPUVM-style GPU-driven paging: the GPU itself
	// issues page fetches over the interconnect (RDMA-style reads posted
	// from the fault handler running on-device), so no page ever waits on
	// the serialized CPU fault handler. Migration *counts* are identical
	// to CPU-driven mode — which pages move, and when, depends only on
	// the access stream and the LRU state — but the device's time
	// accounting drops the FaultCPUSeconds term and instead charges tag
	// occupancy for the page reads, letting UVM throughput scale with the
	// interconnect exactly as the GPUVM paper observes.
	GPUDriven bool
}

// ConfigWithPaging returns the calibrated driver model — 4KB pages migrated
// in 64KB prefetch blocks — with the given paging mode: gpuDriven false is
// the classic serialized CPU fault handler, true the GPUVM-style GPU-driven
// path.
func ConfigWithPaging(capacityPages int, gpuDriven bool) Config {
	return Config{
		PageBytes:       memsys.PageBytes,
		CapacityPages:   capacityPages,
		FaultCPUSeconds: 117e-9,
		BlockPages:      32,
		GPUDriven:       gpuDriven,
	}
}

// pageKey identifies one page of one UVM buffer.
type pageKey struct {
	buf  *memsys.Buffer
	page int
}

// Manager tracks residency of UVM pages in GPU memory with LRU replacement.
// It keeps no counters: Touch and EvictRange return what each call did, and
// the GPU device accounts it per launch.
type Manager struct {
	cfg Config

	// Intrusive LRU over resident pages: map into a doubly-linked list.
	lru      map[pageKey]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
	resident int
}

type lruNode struct {
	key        pageKey
	prev, next *lruNode
}

// NewManager creates a manager with the given configuration.
func NewManager(cfg Config) *Manager {
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = memsys.PageBytes
	}
	return &Manager{cfg: cfg, lru: make(map[pageKey]*lruNode)}
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Touch services a GPU access of size bytes at byte offset off within buf,
// migrating any non-resident pages the access overlaps — plus, for each
// faulting page, the rest of its aligned prefetch block (BlockPages). It
// returns the number of pages migrated now (0 if fully resident; every
// migration is one page fault), the number of overlapped pages that were
// already resident when the access reached them, and the number of pages
// evicted to make room. Residency recency is updated for every overlapped
// page. Pages are read-mostly duplicates, so eviction moves no data.
func (m *Manager) Touch(buf *memsys.Buffer, off int64, size int) (migrated, hits, evicted int) {
	if size <= 0 {
		return 0, 0, 0
	}
	pb := int64(m.cfg.PageBytes)
	first := off / pb
	last := (off + int64(size) - 1) / pb
	for p := first; p <= last; p++ {
		key := pageKey{buf, int(p)}
		if node, ok := m.lru[key]; ok {
			m.moveToFront(node)
			hits++
			continue
		}
		mig, ev := m.faultBlock(buf, p)
		migrated += mig
		evicted += ev
	}
	return migrated, hits, evicted
}

// EvictRange drops residency for every page overlapping the byte range
// [off, off+size) of buf, returning the number evicted. Pages are
// read-mostly duplicates, so eviction moves no data. The transport-policy
// layer uses it when a partition leaves the UVM substrate, so the freed
// capacity is available to partitions that stay on it.
func (m *Manager) EvictRange(buf *memsys.Buffer, off, size int64) (evicted int) {
	if size <= 0 {
		return 0
	}
	pb := int64(m.cfg.PageBytes)
	first := off / pb
	last := (off + size - 1) / pb
	for p := first; p <= last; p++ {
		key := pageKey{buf, int(p)}
		if node, ok := m.lru[key]; ok {
			m.drop(node)
			evicted++
		}
	}
	return evicted
}

// faultBlock migrates the aligned prefetch block containing page p,
// skipping already-resident pages, and returns the number migrated and the
// number evicted to make room.
func (m *Manager) faultBlock(buf *memsys.Buffer, p int64) (migrated, evicted int) {
	block := int64(m.cfg.BlockPages)
	if block <= 1 {
		return 1, m.fault(pageKey{buf, int(p)})
	}
	start := p / block * block
	end := start + block
	if limit := int64(buf.Pages()); end > limit {
		end = limit
	}
	for q := start; q < end; q++ {
		key := pageKey{buf, int(q)}
		if _, ok := m.lru[key]; ok {
			continue
		}
		evicted += m.fault(key)
		migrated++
	}
	return migrated, evicted
}

// fault migrates one page in and returns the number of pages evicted to
// make room: the LRU pages while at capacity.
func (m *Manager) fault(key pageKey) (evicted int) {
	if m.cfg.CapacityPages == 0 {
		// Bounce: the page is transferred and used, but GPU memory has no
		// room to keep it; it is reclaimed before any reuse.
		return 1
	}
	if m.cfg.CapacityPages > 0 {
		for m.resident >= m.cfg.CapacityPages && m.tail != nil {
			m.drop(m.tail)
			evicted++
		}
	}
	node := &lruNode{key: key}
	m.lru[key] = node
	m.pushFront(node)
	m.resident++
	return evicted
}

// drop evicts a resident page. Read-mostly pages are duplicates of host
// data, so eviction is free of writeback traffic.
func (m *Manager) drop(n *lruNode) {
	m.unlink(n)
	delete(m.lru, n.key)
	m.resident--
}

// MigrationWireBytes returns the interconnect payload bytes for n migrated
// pages.
func (m *Manager) MigrationWireBytes(n int) int64 {
	return int64(n) * int64(m.cfg.PageBytes)
}

// FaultCPUTime returns the serialized CPU handler time for n migrated pages.
func (m *Manager) FaultCPUTime(n int) time.Duration {
	return time.Duration(float64(n) * m.cfg.FaultCPUSeconds * float64(time.Second))
}

// --- intrusive LRU list plumbing ---

func (m *Manager) pushFront(n *lruNode) {
	n.prev = nil
	n.next = m.head
	if m.head != nil {
		m.head.prev = n
	}
	m.head = n
	if m.tail == nil {
		m.tail = n
	}
}

func (m *Manager) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		m.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		m.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (m *Manager) moveToFront(n *lruNode) {
	if m.head == n {
		return
	}
	m.unlink(n)
	m.pushFront(n)
}
