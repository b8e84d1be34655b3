package guest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory(64)
	for _, size := range []int{1, 2, 4, 8} {
		want := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if size == 8 {
			want = 0x1122334455667788
		}
		if err := m.Store(8, size, 0x1122334455667788); err != nil {
			t.Fatalf("Store size %d: %v", size, err)
		}
		got, err := m.Load(8, size)
		if err != nil {
			t.Fatalf("Load size %d: %v", size, err)
		}
		if got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory(16)
	if err := m.Store(0, 4, 0x0A0B0C0D); err != nil {
		t.Fatal(err)
	}
	b0, _ := m.Load(0, 1)
	b3, _ := m.Load(3, 1)
	if b0 != 0x0D || b3 != 0x0A {
		t.Errorf("little-endian layout wrong: byte0=%#x byte3=%#x", b0, b3)
	}
}

func TestMemoryFault(t *testing.T) {
	m := NewMemory(16)
	_, err := m.Load(16, 1)
	var mf *MemFault
	if !errors.As(err, &mf) {
		t.Fatalf("Load(16,1) err = %v, want MemFault", err)
	}
	if _, err := m.Load(13, 4); err == nil {
		t.Error("Load straddling end did not fault")
	}
	if err := m.Store(^uint64(0), 8, 1); err == nil {
		t.Error("Store with wrapping address did not fault")
	}
	if _, err := m.Load(0, 3); err == nil {
		t.Error("Load with invalid size did not fail")
	}
}

func TestMemoryF64(t *testing.T) {
	m := NewMemory(32)
	for _, v := range []float64{0, 1.5, -math.Pi, math.Inf(1)} {
		if err := m.StoreF64(16, v); err != nil {
			t.Fatal(err)
		}
		got, err := m.LoadF64(16)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("F64 round trip: got %v, want %v", got, v)
		}
	}
}

// Property: any store followed by a load of the same size and address
// returns the stored value truncated to the access size.
func TestMemoryStoreLoadProperty(t *testing.T) {
	m := NewMemory(4096)
	sizes := []int{1, 2, 4, 8}
	f := func(addr uint16, sizeIdx uint8, val uint64) bool {
		size := sizes[int(sizeIdx)%len(sizes)]
		a := uint64(addr) % uint64(4096-size)
		if err := m.Store(a, size, val); err != nil {
			return false
		}
		got, err := m.Load(a, size)
		if err != nil {
			return false
		}
		want := val
		if size < 8 {
			want = val & (1<<(8*size) - 1)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// flatMemory is the oracle for Memory: one plain byte slice behind
// encoding/binary, with no pages to get wrong.
type flatMemory []byte

func (f flatMemory) inRange(addr uint64, size int) bool {
	end := addr + uint64(size)
	return end >= addr && end <= uint64(len(f))
}

func (f flatMemory) load(addr uint64, size int) (uint64, bool) {
	if !f.inRange(addr, size) {
		return 0, false
	}
	b := f[addr:]
	switch size {
	case 1:
		return uint64(b[0]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), true
	}
	return binary.LittleEndian.Uint64(b), true
}

func (f flatMemory) store(addr uint64, size int, val uint64) bool {
	if !f.inRange(addr, size) {
		return false
	}
	b := f[addr:]
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	default:
		binary.LittleEndian.PutUint64(b, val)
	}
	return true
}

func (f flatMemory) digest() uint64 {
	h := fnv.New64a()
	h.Write(f)
	return h.Sum64()
}

// memPair drives a Memory and its flatMemory oracle in lockstep and fails
// on the first access whose value, error or resulting image differs.
type memPair struct {
	t testing.TB
	m *Memory
	f flatMemory
}

func newMemPair(t testing.TB, size int) *memPair {
	return &memPair{t: t, m: NewMemory(size), f: make(flatMemory, size)}
}

func (p *memPair) load(addr uint64, size int) {
	p.t.Helper()
	got, err := p.m.Load(addr, size)
	want, ok := p.f.load(addr, size)
	p.checkErr("Load", addr, size, err, ok)
	if ok && got != want {
		p.t.Fatalf("size %d: Load(%#x, %d) = %#x, flat model %#x", len(p.f), addr, size, got, want)
	}
}

func (p *memPair) store(addr uint64, size int, val uint64) {
	p.t.Helper()
	err := p.m.Store(addr, size, val)
	p.checkErr("Store", addr, size, err, p.f.store(addr, size, val))
}

// checkErr requires no error for an in-range access and, for any other,
// the exact MemFault (fields and message) the flat layout reported.
func (p *memPair) checkErr(op string, addr uint64, size int, err error, ok bool) {
	p.t.Helper()
	if ok {
		if err != nil {
			p.t.Fatalf("size %d: %s(%#x, %d): unexpected error %v", len(p.f), op, addr, size, err)
		}
		return
	}
	want := MemFault{Addr: addr, Size: size, Len: uint64(len(p.f))}
	var mf *MemFault
	if !errors.As(err, &mf) || *mf != want {
		p.t.Fatalf("size %d: %s(%#x, %d) err = %v, want %+v", len(p.f), op, addr, size, err, want)
	}
	msg := fmt.Sprintf("guest: memory fault: %d-byte access at 0x%x, memory size 0x%x", size, addr, len(p.f))
	if err.Error() != msg {
		p.t.Fatalf("fault message %q, want %q", err, msg)
	}
}

func (p *memPair) zero() {
	p.m.Zero()
	clear(p.f)
}

// verify compares the whole image byte by byte and the digest against
// FNV-1a over the flat bytes.
func (p *memPair) verify() {
	p.t.Helper()
	if p.m.Size() != len(p.f) {
		p.t.Fatalf("Size() = %d, want %d", p.m.Size(), len(p.f))
	}
	for a := range p.f {
		if v, err := p.m.Load(uint64(a), 1); err != nil || byte(v) != p.f[a] {
			p.t.Fatalf("size %d: byte %#x = %#x (%v), flat model %#x", len(p.f), a, v, err, p.f[a])
		}
	}
	if got, want := p.m.Digest(), p.f.digest(); got != want {
		p.t.Fatalf("size %d: Digest %#x, flat FNV-1a %#x", len(p.f), got, want)
	}
}

func allocatedPages(m *Memory) int {
	n := 0
	for _, p := range m.Pages() {
		if p != nil {
			n++
		}
	}
	return n
}

var memTestSizes = []int{1, 7, 16, 1023, 1024, 1025, 81920, 81925}

var memTestWidths = []int{1, 2, 4, 8}

// memEdges returns the addresses where paging can go wrong in a memory
// of size bytes: around 0, every page boundary near either end, the
// whole-page/tail boundary, the last valid byte, one past the end, and
// the top of the address space.
func memEdges(size int) []uint64 {
	var addrs []uint64
	around := func(c uint64) {
		for d := uint64(0); d <= 16; d++ {
			addrs = append(addrs, c+d-8)
		}
	}
	around(0) // starts at ^uint64(0)-7: wraps through the top of the space
	for k := 1; k*PageSize <= size+PageSize; k++ {
		if k <= 3 || k*PageSize >= size-2*PageSize {
			around(uint64(k * PageSize))
		}
	}
	around(uint64(size &^ (PageSize - 1)))
	around(uint64(size))
	return addrs
}

// TestMemoryMatchesFlat is the paged Memory's own differential: every
// other oracle in the repository (guest.Exec, the reference interpreter,
// the bench checker) runs on the same Memory and so is blind to a paging
// bug. Every width, aligned and not, at every edge address, page-crossing
// and tail accesses included, must match a flat byte slice in value, in
// fault and in the resulting image; Zero and Digest must too.
func TestMemoryMatchesFlat(t *testing.T) {
	for _, size := range memTestSizes {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			p := newMemPair(t, size)
			p.verify() // untouched: all zero, digest of zero bytes
			edges := memEdges(size)
			val := uint64(0x0123456789abcdef)
			for _, a := range edges {
				for _, w := range memTestWidths {
					val = val*6364136223846793005 + 1442695040888963407
					p.store(a, w, val)
					for _, rw := range memTestWidths {
						p.load(a, rw)
					}
				}
			}
			p.verify()
			rng := rand.New(rand.NewSource(int64(size)))
			for range 2000 {
				a := uint64(rng.Int63n(int64(size) + 16))
				w := memTestWidths[rng.Intn(len(memTestWidths))]
				if rng.Intn(2) == 0 {
					p.load(a, w)
				} else {
					p.store(a, w, rng.Uint64())
				}
			}
			p.verify()
			pages := allocatedPages(p.m)
			p.zero()
			p.verify()
			if got := allocatedPages(p.m); got != pages {
				t.Fatalf("Zero changed allocated pages %d -> %d, want them kept", pages, got)
			}
			for _, a := range edges {
				p.load(a, 8)
				p.store(a, 8, ^uint64(0))
			}
			p.verify()
		})
	}
}

// FuzzMemory drives the flatMemory differential from fuzz input: a size
// selector, then three bytes per access (kind, width and address mode;
// a 16-bit address operand).
func FuzzMemory(f *testing.F) {
	for i, size := range memTestSizes {
		f.Add(uint32(size), []byte{0x01, 0xff, 0x03, 0x0f, 0x00, 0x04, 0x17, 0x08, 0x00, byte(i)})
	}
	f.Fuzz(func(t *testing.T, sizeSel uint32, ops []byte) {
		size := int(sizeSel % (96 << 10))
		p := newMemPair(t, size)
		for n := 0; len(ops) >= 3; n++ {
			b, x := ops[0], uint64(binary.LittleEndian.Uint16(ops[1:]))
			ops = ops[3:]
			w := memTestWidths[b>>1&3]
			var a uint64
			switch b >> 3 & 3 {
			case 0: // anywhere in range, or just past the end
				a = x % (uint64(size) + 16)
			case 1: // around a page boundary; wraps below 0
				a = (x>>4)*PageSize + x&15 - 8
			case 2: // around the end of memory
				a = uint64(size) + x&15 - 8
			case 3: // the top of the address space
				a = ^uint64(0) - x&15
			}
			switch {
			case b&1 == 0:
				p.load(a, w)
			case b>>5 == 7:
				p.zero()
			default:
				p.store(a, w, x*0x9e3779b97f4a7c15+uint64(n))
			}
		}
		p.verify()
	})
}

// TestNewMemoryAllocs pins the point of paging: a workload-sized memory
// costs its struct and its page table, not its 80 KiB of contents.
func TestNewMemoryAllocs(t *testing.T) {
	const size = 81920
	var sink *Memory
	if n := testing.AllocsPerRun(100, func() { sink = NewMemory(size) }); n > 2 {
		t.Errorf("NewMemory(%d) allocates %v times, want <= 2", size, n)
	}
	var before, after runtime.MemStats
	const runs = 100
	runtime.ReadMemStats(&before)
	for range runs {
		sink = NewMemory(size)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("NewMemory(%d) allocates %d bytes, want < 1 KiB", size, per)
	}
	if allocatedPages(sink) != 0 {
		t.Error("NewMemory allocated pages before any store")
	}
}

// TestUntouchedLoadsDoNotAllocate pins that reads of never-stored pages
// return zero without allocating or filling the page table.
func TestUntouchedLoadsDoNotAllocate(t *testing.T) {
	m := NewMemory(81920)
	n := testing.AllocsPerRun(10, func() {
		for a := uint64(0); a < 81920; a += 8 {
			for _, w := range memTestWidths {
				if v, err := m.Load(a, w); v != 0 || err != nil {
					t.Fatalf("Load(%#x, %d) = %#x, %v on untouched memory", a, w, v, err)
				}
			}
		}
	})
	if n != 0 {
		t.Errorf("loads from untouched pages allocate %v times, want 0", n)
	}
	if got := allocatedPages(m); got != 0 {
		t.Errorf("loads allocated %d pages, want 0", got)
	}
}

// TestStoreOfZeroAllocatesPage pins that the first store into a page
// allocates it even when the value is zero, so zero-initialised arrays
// reach the fast path.
func TestStoreOfZeroAllocatesPage(t *testing.T) {
	m := NewMemory(4 * PageSize)
	if err := m.Store(2*PageSize+8, 8, 0); err != nil {
		t.Fatal(err)
	}
	if m.Pages()[2] == nil || allocatedPages(m) != 1 {
		t.Errorf("store of zero left pages %v, want exactly page 2 allocated", m.Pages())
	}
	if _, ok := PageLoad8(m.Pages(), 2*PageSize+8); !ok {
		t.Error("fast path declined a load from the stored page")
	}
}

func TestStateClone(t *testing.T) {
	var s State
	s.R[5] = 99
	s.F[7] = 2.5
	c := s.Clone()
	c.R[5] = 1
	c.F[7] = 0
	if s.R[5] != 99 || s.F[7] != 2.5 {
		t.Error("Clone aliases original state")
	}
}
