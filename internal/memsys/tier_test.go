package memsys

import (
	"errors"
	"testing"

	"repro/internal/pcie"
)

func TestTierKindStringsAndSpaces(t *testing.T) {
	if TierHBM.String() != "hbm" || TierDRAM.String() != "dram" || TierCXL.String() != "cxl" {
		t.Errorf("tier kind labels wrong: %s %s %s", TierHBM, TierDRAM, TierCXL)
	}

	if SpaceCXL.String() != "cxl" {
		t.Errorf("SpaceCXL label = %q", SpaceCXL)
	}
}

func TestTierStackValidate(t *testing.T) {
	two := TwoTier(1<<20, 1<<22, HBM2V100(), DDR4Quad(), pcie.Gen3x16())
	if err := two.Validate(); err != nil {
		t.Fatalf("canonical two-tier stack invalid: %v", err)
	}
	three := ThreeTierCXL(two, 1<<24)
	if err := three.Validate(); err != nil {
		t.Fatalf("canonical three-tier stack invalid: %v", err)
	}
	if three.CXL() == nil || two.CXL() != nil {
		t.Errorf("CXL tier wrong: three=%v two=%v", three.CXL(), two.CXL())
	}
	if three.CXL().CapacityBytes != 1<<24 {
		t.Errorf("CXL capacity = %d", three.CXL().CapacityBytes)
	}

	bad := []TierStack{
		{},               // empty
		{two[0]},         // HBM only
		{two[1], two[0]}, // wrong order
		{two[0], two[0]}, // two HBMs
		append(append(TierStack{}, three...), three[2]), // four tiers
		{two[0], {Name: "dram", Kind: TierDRAM}},        // DRAM with no link
	}
	for i, ts := range bad {
		if err := ts.Validate(); err == nil {
			t.Errorf("bad stack %d validated", i)
		}
	}
}

func TestNewTieredArenaCapacities(t *testing.T) {
	two := TwoTier(4096, 8192, HBM2V100(), DDR4Quad(), pcie.Gen3x16())
	a, err := NewTieredArena(two)
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUCapacity != 4096 || a.HostCapacity != 8192 || a.CXLCapacity != 0 {
		t.Errorf("two-tier arena capacities: %d/%d/%d", a.GPUCapacity, a.HostCapacity, a.CXLCapacity)
	}
	// SpaceCXL without a tier must fail loudly, not silently account.
	if _, err := a.Alloc("x", SpaceCXL, 64); err == nil {
		t.Error("CXL alloc without a CXL tier should fail")
	}

	three := ThreeTierCXL(two, 1<<20)
	a3, err := NewTieredArena(three)
	if err != nil {
		t.Fatal(err)
	}
	if a3.CXLCapacity != 1<<20 || a3.CXLTier() == nil {
		t.Errorf("three-tier arena CXL capacity %d, tier %v", a3.CXLCapacity, a3.CXLTier())
	}
	b, err := a3.Alloc("c", SpaceCXL, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if a3.CXLUsed() != 4096 {
		t.Errorf("CXLUsed = %d", a3.CXLUsed())
	}
	a3.Free(b)
	if a3.CXLUsed() != 0 {
		t.Errorf("CXLUsed after free = %d", a3.CXLUsed())
	}
}

func TestWithSegmentHomesSpill(t *testing.T) {
	two := TwoTier(0, 3*SegmentBytes, HBM2V100(), DDR4Quad(), pcie.Gen3x16())
	a, err := NewTieredArena(ThreeTierCXL(two, 16*SegmentBytes))
	if err != nil {
		t.Fatal(err)
	}
	// 6 segments against a 3-segment host: homes split half and half — an
	// allocation bigger than host DRAM that a plain Alloc would refuse.
	size := int64(6 * SegmentBytes)
	if _, err := a.Alloc("plain", SpaceHostPinned, size); err == nil {
		t.Fatal("plain alloc beyond host capacity should fail")
	}
	homes := []Space{SpaceHostPinned, SpaceHostPinned, SpaceHostPinned, SpaceCXL, SpaceCXL, SpaceCXL}
	b, err := a.Alloc("split", SpaceHostPinned, size, WithSegmentHomes(homes))
	if err != nil {
		t.Fatalf("segmented alloc: %v", err)
	}
	if got := a.hostUsed; got != 3*SegmentBytes {
		t.Errorf("HostUsed = %d, want %d", got, 3*SegmentBytes)
	}
	if got := a.CXLUsed(); got != 3*SegmentBytes {
		t.Errorf("CXLUsed = %d, want %d", got, 3*SegmentBytes)
	}

	if b.SegmentHome(0) != SpaceHostPinned || b.SegmentHome(5) != SpaceCXL {
		t.Errorf("segment homes wrong: %v / %v", b.SegmentHome(0), b.SegmentHome(5))
	}
	if b.HomeAt(0) != SpaceHostPinned || b.HomeAt(5*SegmentBytes) != SpaceCXL {
		t.Errorf("HomeAt wrong")
	}
	a.Free(b)
	if a.hostUsed != 0 || a.CXLUsed() != 0 {
		t.Errorf("accounting after free: host %d cxl %d", a.hostUsed, a.CXLUsed())
	}
}

func TestWithSegmentHomesRollback(t *testing.T) {
	two := TwoTier(0, 8*SegmentBytes, HBM2V100(), DDR4Quad(), pcie.Gen3x16())
	a, err := NewTieredArena(ThreeTierCXL(two, SegmentBytes)) // 1 CXL segment only
	if err != nil {
		t.Fatal(err)
	}
	homes := []Space{SpaceHostPinned, SpaceCXL, SpaceCXL} // second CXL segment overflows
	_, err = a.Alloc("over", SpaceHostPinned, 3*SegmentBytes, WithSegmentHomes(homes))
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if a.hostUsed != 0 || a.CXLUsed() != 0 {
		t.Errorf("partial charges not rolled back: host %d cxl %d", a.hostUsed, a.CXLUsed())
	}

	// Shape errors: wrong count, bad home space, wrong buffer space.
	if _, err := a.Alloc("short", SpaceHostPinned, 3*SegmentBytes,
		WithSegmentHomes([]Space{SpaceHostPinned})); err == nil {
		t.Error("home count mismatch should fail")
	}
	if _, err := a.Alloc("gpuhome", SpaceHostPinned, SegmentBytes,
		WithSegmentHomes([]Space{SpaceGPU})); err == nil {
		t.Error("GPU segment home should fail")
	}
	if a.hostUsed != 0 || a.CXLUsed() != 0 {
		t.Errorf("failed allocs leaked accounting: host %d cxl %d", a.hostUsed, a.CXLUsed())
	}
}

func TestSetSegmentHomeMovesAccounting(t *testing.T) {
	two := TwoTier(0, 8*SegmentBytes, HBM2V100(), DDR4Quad(), pcie.Gen3x16())
	a, err := NewTieredArena(ThreeTierCXL(two, 2*SegmentBytes))
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Alloc("b", SpaceHostPinned, 4*SegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetSegmentHome(b, 1, SpaceCXL); err != nil {
		t.Fatal(err)
	}
	if a.hostUsed != 3*SegmentBytes || a.CXLUsed() != SegmentBytes {
		t.Errorf("after move: host %d cxl %d", a.hostUsed, a.CXLUsed())
	}
	// Moving back restores.
	if err := a.SetSegmentHome(b, 1, SpaceHostPinned); err != nil {
		t.Fatal(err)
	}
	if a.hostUsed != 4*SegmentBytes || a.CXLUsed() != 0 {
		t.Errorf("after move back: host %d cxl %d", a.hostUsed, a.CXLUsed())
	}
	// CXL tier is 2 segments: the third move must fail and leave accounting
	// untouched.
	if err := a.SetSegmentHome(b, 0, SpaceCXL); err != nil {
		t.Fatal(err)
	}
	if err := a.SetSegmentHome(b, 1, SpaceCXL); err != nil {
		t.Fatal(err)
	}
	if err := a.SetSegmentHome(b, 2, SpaceCXL); err == nil {
		t.Error("move beyond CXL capacity should fail")
	}
	if a.CXLUsed() != 2*SegmentBytes {
		t.Errorf("CXLUsed after refused move = %d", a.CXLUsed())
	}
	if err := a.SetSegmentHome(b, 9, SpaceCXL); err == nil {
		t.Error("out-of-range segment should fail")
	}
	if err := a.SetSegmentHome(b, 0, SpaceGPU); err == nil {
		t.Error("GPU home should fail")
	}
}

// TestSetSegmentHomeKeepsOtherHomes: the first re-home of a buffer with
// no per-segment homes must leave the untouched segments on their
// allocation space, and move exactly the re-homed bytes between tiers.
func TestSetSegmentHomeKeepsOtherHomes(t *testing.T) {
	two := TwoTier(0, 0, HBM2V100(), DDR4Quad(), pcie.Gen3x16())
	a, err := NewTieredArena(ThreeTierCXL(two, 0))
	if err != nil {
		t.Fatal(err)
	}
	b := a.MustAlloc("edges", SpaceHostPinned, 3*SegmentBytes)
	for seg := 0; seg < 2; seg++ {
		if err := a.SetSegmentHome(b, seg, SpaceCXL); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.SegmentHome(2); got != SpaceHostPinned {
		t.Errorf("untouched segment 2 home = %s, want %s", got, SpaceHostPinned)
	}
	if a.GPUUsed() != 0 || a.hostUsed != SegmentBytes || a.CXLUsed() != 2*SegmentBytes {
		t.Errorf("accounting gpu/host/cxl = %d/%d/%d, want 0/%d/%d",
			a.GPUUsed(), a.hostUsed, a.CXLUsed(), SegmentBytes, 2*SegmentBytes)
	}
}
