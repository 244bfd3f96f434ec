// Package mem provides the simulator's memory system: a flat functional
// memory that backs emulation, and a timing model of the GPU cache/DRAM
// hierarchy (set-associative L1 and banked L2 caches, banked DRAM with
// per-bank queueing and one fixed latency) used by the detailed simulation
// mode.
package mem

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
)

const (
	pageBits = 16
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	// lowPages is the number of pages in the 32-bit pointer space every
	// allocation lives in.
	lowPages = 1 << (32 - pageBits)
)

type page = [pageSize]byte

// zeroPage is what a read of an untouched page sees: a read must not map
// memory. It is shared by every Flat and never written — only readPage hands
// it out, and never through a Flat's page cache, where a later write to the
// same page number would find it.
var zeroPage page

// Flat is a sparse, byte-addressable functional memory with a bump
// allocator. Buffers are allocated in the low 4 GiB so that 32-bit registers
// can hold pointers, matching the kernels' 32-bit pointer convention.
//
// A Flat is not safe for concurrent use, but a Fork and its parent are
// independent images and may be used from different goroutines.
type Flat struct {
	// low is the page table of the 32-bit pointer space, indexed by page
	// number and grown on demand; an untouched page is nil. A kernel that
	// alternates between buffers changes page on every access, so the
	// lookup behind the single-entry caches is an index, not a hash. far
	// holds the pages above it, which only wrapped or wild addresses reach.
	low []*page
	far map[uint64]*page
	brk uint64

	// shared is the ownership bit of every page: set while the page may be
	// mapped by another image since a Fork, so a store must copy it first.
	// Bit pn&63 of shared[pn>>6] covers low page pn, farShared the far
	// pages. Both are nil on a Flat that was never forked.
	shared    []uint64
	farShared map[uint64]bool

	// Single-entry page caches, one for loads and one for stores: GPU
	// kernels stream through buffers, so consecutive accesses
	// overwhelmingly hit the same 64 KiB page and skip the table lookup.
	// The store cache holds only pages this image owns.
	rPN, wPN     uint64
	rPage, wPage *page
}

// NewFlat returns an empty memory. Allocation starts at 64 KiB so that
// address 0 stays unmapped (helps catch null-pointer bugs in kernels).
func NewFlat() *Flat {
	return &Flat{brk: pageSize, rPN: ^uint64(0), wPN: ^uint64(0)}
}

// Fork returns a copy-on-write clone of the image. The two images share
// every page; whichever side stores to a shared page first copies it, so
// the other never sees the store. Forking costs one pass over the page
// table, and each side then pays one page copy per page it writes.
func (m *Flat) Fork() *Flat {
	m.shared = make([]uint64, (len(m.low)+63)/64)
	for pn, p := range m.low {
		if p != nil {
			m.shared[pn>>6] |= 1 << (pn & 63)
		}
	}
	m.farShared = make(map[uint64]bool, len(m.far))
	for pn := range m.far {
		m.farShared[pn] = true
	}
	m.wPN, m.wPage = ^uint64(0), nil // the cached page is shared now
	return &Flat{
		low: slices.Clone(m.low), far: maps.Clone(m.far), brk: m.brk,
		shared: slices.Clone(m.shared), farShared: maps.Clone(m.farShared),
		rPN: ^uint64(0), wPN: ^uint64(0),
	}
}

// Adopt makes m the image f holds, f a fork of m or of a relative of m,
// and empties f, which must not be used again. m drops its own pages; the
// pages f shares with another image stay marked shared, so whichever side
// stores to one still copies it first.
func (m *Flat) Adopt(f *Flat) {
	*m, *f = *f, Flat{}
}

// owns reports whether page pn, which must be mapped, is this image's alone.
func (m *Flat) owns(pn uint64) bool {
	if pn < lowPages {
		w := pn >> 6
		return w >= uint64(len(m.shared)) || m.shared[w]&(1<<(pn&63)) == 0
	}
	return !m.farShared[pn]
}

// own replaces shared page pn by a private copy and returns the copy.
func (m *Flat) own(pn uint64, p *page) *page {
	c := new(page)
	*c = *p
	if pn < lowPages {
		m.low[pn] = c
		m.shared[pn>>6] &^= 1 << (pn & 63)
	} else {
		m.far[pn] = c
		delete(m.farShared, pn)
	}
	return c
}

// lookup returns page pn, or nil if it was never touched.
func (m *Flat) lookup(pn uint64) *page {
	if pn < uint64(len(m.low)) {
		return m.low[pn]
	}
	return m.far[pn] // pn < lowPages is never a key
}

// create maps a zeroed page at pn, which must be unmapped.
func (m *Flat) create(pn uint64) *page {
	p := new(page)
	switch {
	case pn >= lowPages:
		if m.far == nil {
			m.far = make(map[uint64]*page)
		}
		m.far[pn] = p
		return p
	case pn >= uint64(len(m.low)):
		low := make([]*page, min(lowPages, max(pn+1, 2*uint64(len(m.low)))))
		copy(low, m.low)
		m.low = low
	}
	m.low[pn] = p
	return p
}

// Alloc reserves size bytes and returns the base address, 256-byte aligned.
func (m *Flat) Alloc(size uint64) uint64 {
	const align = 256
	m.brk = (m.brk + align - 1) &^ uint64(align-1)
	base := m.brk
	m.brk += size
	if m.brk >= 1<<32 {
		panic(fmt.Sprintf("mem: allocation exceeds 32-bit pointer space (brk=%#x)", m.brk))
	}
	return base
}

// readPage returns the page a load of addr reads: the mapped page, or the
// shared zero page when addr was never written.
func (m *Flat) readPage(addr uint64) *page {
	if addr>>pageBits == m.rPN {
		return m.rPage
	}
	return m.readMiss(addr >> pageBits)
}

// writePage returns the page a store to addr writes, mapping it on first
// touch and copying it first when it is shared with a fork.
func (m *Flat) writePage(addr uint64) *page {
	if addr>>pageBits == m.wPN {
		return m.wPage
	}
	return m.writeMiss(addr >> pageBits)
}

// readMiss and writeMiss are the paths past the single-entry caches, kept
// out of line so the hit paths inline into Read32 and Write32.
func (m *Flat) readMiss(pn uint64) *page {
	p := m.lookup(pn)
	if p == nil {
		return &zeroPage
	}
	m.rPN, m.rPage = pn, p
	return p
}

func (m *Flat) writeMiss(pn uint64) *page {
	p := m.lookup(pn)
	switch {
	case p == nil:
		p = m.create(pn)
	case !m.owns(pn):
		p = m.own(pn, p)
		if m.rPN == pn { // the load cache must not keep the shared original
			m.rPage = p
		}
	}
	m.wPN, m.wPage = pn, p
	return p
}

// Read32 loads a little-endian 32-bit word. Unaligned accesses that straddle
// a page boundary are handled byte-wise.
func (m *Flat) Read32(addr uint64) uint32 {
	off := addr & pageMask
	if off+4 <= pageSize {
		return binary.LittleEndian.Uint32(m.readPage(addr)[off:])
	}
	var b [4]byte
	for i := range b {
		a := addr + uint64(i)
		b[i] = m.readPage(a)[a&pageMask]
	}
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 stores a little-endian 32-bit word.
func (m *Flat) Write32(addr uint64, v uint32) {
	off := addr & pageMask
	if off+4 <= pageSize {
		binary.LittleEndian.PutUint32(m.writePage(addr)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	for i := range b {
		a := addr + uint64(i)
		m.writePage(a)[a&pageMask] = b[i]
	}
}

// Gather32 loads one word per address into out, in index order: the
// whole-instruction form of Read32 a vector load uses.
//
// It keeps the page of the current run of same-page addresses in locals, so
// a unit-stride access costs one page lookup, not one per word, and the
// per-word test is a single range check against that page. A word straddling
// a page boundary takes Read32's byte-wise path.
func (m *Flat) Gather32(addrs []uint64, out []uint32) {
	if len(addrs) == 0 {
		return
	}
	out = out[:len(addrs)]
	base, pg := addrs[0]&^pageMask, m.readPage(addrs[0])
	for i, a := range addrs {
		off := a - base
		if off > pageSize-4 { // another page, or the last bytes of this one
			if a&pageMask > pageSize-4 {
				out[i] = m.Read32(a)
				continue
			}
			base, pg = a&^pageMask, m.readPage(a)
			off = a - base
		}
		out[i] = binary.LittleEndian.Uint32(pg[off:])
	}
}

// Scatter32 stores vals[i] at addrs[i] in index order, so among duplicate
// addresses the last one wins: the whole-instruction form of Write32.
func (m *Flat) Scatter32(addrs []uint64, vals []uint32) {
	if len(addrs) == 0 {
		return
	}
	vals = vals[:len(addrs)]
	base, pg := addrs[0]&^pageMask, m.writePage(addrs[0])
	for i, a := range addrs {
		off := a - base
		if off > pageSize-4 {
			if a&pageMask > pageSize-4 {
				m.Write32(a, vals[i])
				continue
			}
			base, pg = a&^pageMask, m.writePage(a)
			off = a - base
		}
		binary.LittleEndian.PutUint32(pg[off:], vals[i])
	}
}

// ReadF32 loads a float32.
func (m *Flat) ReadF32(addr uint64) float32 { return math.Float32frombits(m.Read32(addr)) }

// WriteF32 stores a float32.
func (m *Flat) WriteF32(addr uint64, v float32) { m.Write32(addr, math.Float32bits(v)) }

// run returns the bytes of pg, the page of addr, that hold the words at
// addr, at most n of them: bulk access looks a page up per run, not per word.
// Bulk addresses are word-aligned, so no word straddles two pages.
func run(pg *page, addr uint64, n int) []byte {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned bulk access at %#x", addr))
	}
	off := addr & pageMask
	return pg[off : off+min(4*uint64(n), pageSize-off)]
}

func (m *Flat) readRun(addr uint64, n int) []byte  { return run(m.readPage(addr), addr, n) }
func (m *Flat) writeRun(addr uint64, n int) []byte { return run(m.writePage(addr), addr, n) }

// WriteWords stores a slice of 32-bit words starting at base.
func (m *Flat) WriteWords(base uint64, words []uint32) {
	for i := 0; i < len(words); {
		for pg := m.writeRun(base+4*uint64(i), len(words)-i); len(pg) > 0; pg, i = pg[4:], i+1 {
			binary.LittleEndian.PutUint32(pg, words[i])
		}
	}
}

// WriteFloats stores a slice of float32 starting at base.
func (m *Flat) WriteFloats(base uint64, vals []float32) {
	for i := 0; i < len(vals); {
		for pg := m.writeRun(base+4*uint64(i), len(vals)-i); len(pg) > 0; pg, i = pg[4:], i+1 {
			binary.LittleEndian.PutUint32(pg, math.Float32bits(vals[i]))
		}
	}
}

// ReadFloats loads n float32 values starting at base.
func (m *Flat) ReadFloats(base uint64, n int) []float32 {
	out := make([]float32, n)
	for i := 0; i < n; {
		for pg := m.readRun(base+4*uint64(i), n-i); len(pg) > 0; pg, i = pg[4:], i+1 {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(pg))
		}
	}
	return out
}

// ReadWords loads n 32-bit words starting at base.
func (m *Flat) ReadWords(base uint64, n int) []uint32 {
	out := make([]uint32, n)
	for i := 0; i < n; {
		for pg := m.readRun(base+4*uint64(i), n-i); len(pg) > 0; pg, i = pg[4:], i+1 {
			out[i] = binary.LittleEndian.Uint32(pg)
		}
	}
	return out
}
