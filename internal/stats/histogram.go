// Package stats provides the small statistics substrate shared by the
// simulator's traffic monitor and the experiment harness: integer-keyed
// histograms, weighted CDFs, and the arithmetic mean.

// Everything in this package is deterministic and allocation-conscious; the
// hot path (Histogram.Add) is called once per simulated PCIe request.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram counts occurrences of integer-valued observations, such as PCIe
// request sizes in bytes. The zero value is ready to use.
//
// The coalescer's request sizes (32, 64, 96 and 128 bytes) are counted in
// a fixed array, so recording one is an index, not a map assignment; all
// other values go to the map.
type Histogram struct {
	small  [smallSlots]uint64
	counts map[int64]uint64
	total  uint64
	sum    int64
}

// smallSlots is the number of values counted in Histogram.small: the
// multiples of 32 from 32 to 128.
const smallSlots = 4

// smallSlot returns v's index in Histogram.small, or -1 when v is counted
// in the map.
func smallSlot(v int64) int {
	if v&31 != 0 || v < 32 || v > 32*smallSlots {
		return -1
	}
	return int(v>>5) - 1
}

// Add records one observation of value v.
func (h *Histogram) Add(v int64) { h.AddN(v, 1) }

// AddN records n observations of value v.
func (h *Histogram) AddN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if i := smallSlot(v); i >= 0 {
		h.small[i] += n
	} else {
		if h.counts == nil {
			h.counts = make(map[int64]uint64)
		}
		h.counts[v] += n
	}
	h.total += n
	h.sum += v * int64(n)
}

// Count returns the number of observations with value v.
func (h *Histogram) Count(v int64) uint64 {
	if i := smallSlot(v); i >= 0 {
		return h.small[i]
	}
	return h.counts[v]
}

// Total returns the total number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all observed values (e.g. total bytes when the
// histogram keys are request sizes).
func (h *Histogram) Sum() int64 { return h.sum }

// Fraction returns the fraction of observations with value v, in [0, 1].
// It returns 0 for an empty histogram.
func (h *Histogram) Fraction(v int64) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Keys returns the distinct observed values in ascending order.
func (h *Histogram) Keys() []int64 {
	keys := make([]int64, 0, smallSlots+len(h.counts))
	for i, n := range h.small {
		if n > 0 {
			keys = append(keys, int64(i+1)*32)
		}
	}
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Merge adds all observations from other into h. Merging preserves totals:
// after the call, h.Total() has grown by other.Total().
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i, n := range other.small {
		h.AddN(int64(i+1)*32, n)
	}
	for k, n := range other.counts {
		h.AddN(k, n)
	}
}

// Reset discards all observations. The bucket map is retained (cleared, not
// dropped), so reset+record cycles over a stable key set — the traffic
// monitor's per-run lifecycle — do not allocate.
func (h *Histogram) Reset() {
	h.small = [smallSlots]uint64{}
	clear(h.counts)
	h.total = 0
	h.sum = 0
}

// String renders the histogram as "key:count" pairs in ascending key order,
// which keeps test failure output readable.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, k := range h.Keys() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", k, h.Count(k))
	}
	return b.String()
}
