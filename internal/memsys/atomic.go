package memsys

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Atomic element accessors. Simulated kernels may execute warps on several
// host goroutines at once (see the gpu package's parallel launch engine),
// so every data word a kernel body can touch concurrently must be read and
// written with real atomics. The accessors below operate on the aligned
// machine words backing Data — alignedBytes guarantees 8-byte alignment of
// the backing store, and typed indices keep each element inside one word.
//
// Buffer data is defined to be little-endian (see U32/PutU32), while
// sync/atomic works on native words, so on a big-endian host the logical
// value is byte-swapped around each atomic operation. The swap is a pure
// value transformation: the memory image stays little-endian and remains
// interchangeable with the non-atomic accessors.

// littleEndian reports whether the host stores words little-endian.
var littleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// alignedBytes returns a size-byte slice whose backing array is 8-byte
// aligned, so 32- and 64-bit element slots can be addressed with
// sync/atomic operations.
func alignedBytes(size int64) []byte {
	if size == 0 {
		return []byte{}
	}
	words := make([]uint64, (size+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
}

func word32(v uint32) uint32 {
	if littleEndian {
		return v
	}
	return bits.ReverseBytes32(v)
}

func word64(v uint64) uint64 {
	if littleEndian {
		return v
	}
	return bits.ReverseBytes64(v)
}

func (b *Buffer) ptr32(i int64) *uint32 {
	return (*uint32)(unsafe.Pointer(&b.Data[i*4]))
}

func (b *Buffer) ptr64(i int64) *uint64 {
	return (*uint64)(unsafe.Pointer(&b.Data[i*8]))
}

// AtomicU32 atomically reads the 32-bit element at index i.
func (b *Buffer) AtomicU32(i int64) uint32 {
	return word32(atomic.LoadUint32(b.ptr32(i)))
}

// AtomicPutU32 atomically writes the 32-bit element at index i.
func (b *Buffer) AtomicPutU32(i int64, v uint32) {
	atomic.StoreUint32(b.ptr32(i), word32(v))
}

// AtomicU64 atomically reads the 64-bit element at index i.
func (b *Buffer) AtomicU64(i int64) uint64 {
	return word64(atomic.LoadUint64(b.ptr64(i)))
}

// AtomicMinU32 atomically lowers element i to v if v is smaller, returning
// the previous value — the CUDA atomicMin contract.
func (b *Buffer) AtomicMinU32(i int64, v uint32) uint32 {
	p := b.ptr32(i)
	for {
		raw := atomic.LoadUint32(p)
		cur := word32(raw)
		if v >= cur {
			return cur
		}
		if atomic.CompareAndSwapUint32(p, raw, word32(v)) {
			return cur
		}
	}
}

// AtomicMaxU32 atomically raises element i to v if v is larger, returning
// the previous value — the CUDA atomicMax contract.
func (b *Buffer) AtomicMaxU32(i int64, v uint32) uint32 {
	p := b.ptr32(i)
	for {
		raw := atomic.LoadUint32(p)
		cur := word32(raw)
		if v <= cur {
			return cur
		}
		if atomic.CompareAndSwapUint32(p, raw, word32(v)) {
			return cur
		}
	}
}

// AtomicOrU32 atomically ORs v into element i, returning the previous
// value — the CUDA atomicOr contract.
func (b *Buffer) AtomicOrU32(i int64, v uint32) uint32 {
	p := b.ptr32(i)
	for {
		raw := atomic.LoadUint32(p)
		cur := word32(raw)
		if cur|v == cur {
			return cur
		}
		if atomic.CompareAndSwapUint32(p, raw, word32(cur|v)) {
			return cur
		}
	}
}

// AtomicOrU64 atomically ORs v into the 64-bit element at index i,
// returning the previous value — the CUDA atomicOr contract on unsigned
// long long. The batched traversal engine uses it to set per-query lane
// bits in its next-frontier bitmask words.
func (b *Buffer) AtomicOrU64(i int64, v uint64) uint64 {
	p := b.ptr64(i)
	for {
		raw := atomic.LoadUint64(p)
		cur := word64(raw)
		if cur|v == cur {
			return cur
		}
		if atomic.CompareAndSwapUint64(p, raw, word64(cur|v)) {
			return cur
		}
	}
}
