package guest

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Memory is the little-endian byte-addressable guest memory, held as a
// table of PageSize-byte pages that are allocated on their first store. A
// page that was never stored to reads as zero, so a run pays only for the
// memory it writes. Bytes past the last whole page live in a small tail
// slice allocated up front.
//
// Out-of-range accesses return a MemFault rather than panicking: in the
// dynamic optimization system a guest fault inside an atomic region must be
// catchable so the region can roll back (Figure 1 of the paper routes all
// exceptions through the runtime module).
type Memory struct {
	size  uint64
	pages []*Page
	tail  []byte
}

// PageSize is the allocation granule of a Memory in bytes.
const PageSize = 1 << pageShift

const pageShift = 10

// Page is one allocated PageSize-byte page of a Memory.
type Page [PageSize]byte

// MemFault describes an out-of-bounds guest memory access.
type MemFault struct {
	Addr uint64
	Size int
	Len  uint64
}

func (f *MemFault) Error() string {
	return fmt.Sprintf("guest: memory fault: %d-byte access at 0x%x, memory size 0x%x", f.Size, f.Addr, f.Len)
}

// NewMemory returns a zeroed guest memory of the given size in bytes. Only
// the page table and the tail are allocated; pages are allocated by the
// first store into them.
func NewMemory(size int) *Memory {
	m := &Memory{size: uint64(size), pages: make([]*Page, size>>pageShift)}
	if t := size & (PageSize - 1); t != 0 {
		m.tail = make([]byte, t)
	}
	return m
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return int(m.size) }

// Pages returns the page table: entry i holds bytes [i*PageSize,
// (i+1)*PageSize), nil until the first store into that page. The slice
// itself never changes over the Memory's lifetime and stores fill its nil
// entries in place, so a hot loop may hoist it into a local once and pass
// it to the PageLoad/PageStore functions. Callers must not write entries.
func (m *Memory) Pages() []*Page { return m.pages }

// The PageLoad/PageStore functions are the fast path of every guest
// access: each handles an access that lies inside one allocated page and
// returns ok=false, with no side effects, for anything else — an
// unallocated page, a page-crossing access, the tail, or a fault. Callers
// then fall back to Memory.Load or Memory.Store, which handle all of those
// and return the exact MemFault.

// PageLoad1 reads one byte at addr, zero-extended.
func PageLoad1(pages []*Page, addr uint64) (uint64, bool) {
	i := addr >> pageShift
	if i >= uint64(len(pages)) || pages[i] == nil {
		return 0, false
	}
	return uint64(pages[i][addr&(PageSize-1)]), true
}

// PageLoad2 reads a little-endian uint16 at addr, zero-extended.
func PageLoad2(pages []*Page, addr uint64) (uint64, bool) {
	i, off := addr>>pageShift, addr&(PageSize-1)
	if i >= uint64(len(pages)) || pages[i] == nil || off > PageSize-2 {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint16(pages[i][off:])), true
}

// PageLoad4 reads a little-endian uint32 at addr, zero-extended.
func PageLoad4(pages []*Page, addr uint64) (uint64, bool) {
	i, off := addr>>pageShift, addr&(PageSize-1)
	if i >= uint64(len(pages)) || pages[i] == nil || off > PageSize-4 {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint32(pages[i][off:])), true
}

// PageLoad8 reads a little-endian uint64 at addr.
func PageLoad8(pages []*Page, addr uint64) (uint64, bool) {
	i, off := addr>>pageShift, addr&(PageSize-1)
	if i >= uint64(len(pages)) || pages[i] == nil || off > PageSize-8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(pages[i][off:]), true
}

// PageStore1 writes the low byte of val at addr.
func PageStore1(pages []*Page, addr uint64, val uint64) bool {
	i := addr >> pageShift
	if i >= uint64(len(pages)) || pages[i] == nil {
		return false
	}
	pages[i][addr&(PageSize-1)] = byte(val)
	return true
}

// PageStore2 writes the low 2 bytes of val at addr, little-endian.
func PageStore2(pages []*Page, addr uint64, val uint64) bool {
	i, off := addr>>pageShift, addr&(PageSize-1)
	if i >= uint64(len(pages)) || pages[i] == nil || off > PageSize-2 {
		return false
	}
	binary.LittleEndian.PutUint16(pages[i][off:], uint16(val))
	return true
}

// PageStore4 writes the low 4 bytes of val at addr, little-endian.
func PageStore4(pages []*Page, addr uint64, val uint64) bool {
	i, off := addr>>pageShift, addr&(PageSize-1)
	if i >= uint64(len(pages)) || pages[i] == nil || off > PageSize-4 {
		return false
	}
	binary.LittleEndian.PutUint32(pages[i][off:], uint32(val))
	return true
}

// PageStore8 writes val at addr, little-endian.
func PageStore8(pages []*Page, addr uint64, val uint64) bool {
	i, off := addr>>pageShift, addr&(PageSize-1)
	if i >= uint64(len(pages)) || pages[i] == nil || off > PageSize-8 {
		return false
	}
	binary.LittleEndian.PutUint64(pages[i][off:], val)
	return true
}

// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended to 64 bits.
func (m *Memory) Load(addr uint64, size int) (uint64, error) {
	switch size {
	case 1:
		if v, ok := PageLoad1(m.pages, addr); ok {
			return v, nil
		}
	case 2:
		if v, ok := PageLoad2(m.pages, addr); ok {
			return v, nil
		}
	case 4:
		if v, ok := PageLoad4(m.pages, addr); ok {
			return v, nil
		}
	case 8:
		if v, ok := PageLoad8(m.pages, addr); ok {
			return v, nil
		}
	}
	if err := m.check(addr, size); err != nil {
		return 0, err
	}
	switch size {
	case 1, 2, 4, 8:
	default:
		return 0, fmt.Errorf("guest: invalid load size %d", size)
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.byteAt(addr+uint64(i)))
	}
	return v, nil
}

// Store writes the low size bytes (1, 2, 4 or 8) of val at addr,
// allocating any page it touches for the first time. A faulting store
// writes nothing.
func (m *Memory) Store(addr uint64, size int, val uint64) error {
	switch size {
	case 1:
		if PageStore1(m.pages, addr, val) {
			return nil
		}
	case 2:
		if PageStore2(m.pages, addr, val) {
			return nil
		}
	case 4:
		if PageStore4(m.pages, addr, val) {
			return nil
		}
	case 8:
		if PageStore8(m.pages, addr, val) {
			return nil
		}
	}
	if err := m.check(addr, size); err != nil {
		return err
	}
	switch size {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("guest: invalid store size %d", size)
	}
	for i := range size {
		*m.bytePtr(addr + uint64(i)) = byte(val >> (8 * i))
	}
	return nil
}

func (m *Memory) check(addr uint64, size int) error {
	if addr+uint64(size) > m.size || addr+uint64(size) < addr {
		return &MemFault{Addr: addr, Size: size, Len: m.size}
	}
	return nil
}

// byteAt reads the in-range byte at addr; an unallocated page reads as 0.
func (m *Memory) byteAt(addr uint64) byte {
	i := addr >> pageShift
	if i >= uint64(len(m.pages)) {
		return m.tail[addr&(PageSize-1)]
	}
	if p := m.pages[i]; p != nil {
		return p[addr&(PageSize-1)]
	}
	return 0
}

// bytePtr returns the in-range byte at addr for writing, allocating its
// page on first use.
func (m *Memory) bytePtr(addr uint64) *byte {
	i := addr >> pageShift
	if i >= uint64(len(m.pages)) {
		return &m.tail[addr&(PageSize-1)]
	}
	p := m.pages[i]
	if p == nil {
		p = new(Page)
		m.pages[i] = p
	}
	return &p[addr&(PageSize-1)]
}

// Zero resets the memory contents to the all-zeroes initial state. It
// clears allocated pages in place and keeps them, so a reused Memory
// allocates nothing on its next run.
func (m *Memory) Zero() {
	for _, p := range m.pages {
		if p != nil {
			clear(p[:])
		}
	}
	clear(m.tail)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvZeroPage is fnvPrime64^PageSize: FNV-1a over a page of zero bytes is
// PageSize bare multiplies by the prime, since h ^= 0 changes nothing.
var fnvZeroPage = func() uint64 {
	p := uint64(fnvPrime64)
	for range pageShift {
		p *= p
	}
	return p
}()

// Digest returns a 64-bit FNV-1a hash of the full memory contents — a
// cheap fingerprint the rollback invariant checker compares across an
// atomic region's checkpoint/restore cycle. It equals FNV-1a over the
// flat byte image; an unallocated page folds in as one multiply.
func (m *Memory) Digest() uint64 {
	h := uint64(fnvOffset64)
	for _, p := range m.pages {
		if p == nil {
			h *= fnvZeroPage
			continue
		}
		for _, b := range p {
			h ^= uint64(b)
			h *= fnvPrime64
		}
	}
	for _, b := range m.tail {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// LoadF64 reads a float64 at addr.
func (m *Memory) LoadF64(addr uint64) (float64, error) {
	bits, err := m.Load(addr, 8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// StoreF64 writes a float64 at addr.
func (m *Memory) StoreF64(addr uint64, v float64) error {
	return m.Store(addr, 8, math.Float64bits(v))
}

// State is the guest architectural register state: 32 integer and 32
// floating-point registers. The zero value is a reset machine.
type State struct {
	R [NumRegs]int64
	F [NumRegs]float64
}

// Clone returns a heap copy of the state. The atomic-region checkpoint
// now holds a State by value to stay allocation-free; Clone remains for
// callers that want an owned snapshot (reference runs, tests).
func (s *State) Clone() *State {
	c := *s
	return &c
}
