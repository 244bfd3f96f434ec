package mem

import (
	"encoding/binary"
	"maps"
	"testing"
)

// refImage is a byte-granular reference model of one image: every byte ever
// stored, absent bytes reading zero.
type refImage map[uint64]byte

func (r refImage) write32(addr uint64, v uint32) {
	for i := uint64(0); i < 4; i++ {
		r[addr+i] = byte(v >> (8 * i))
	}
}

func (r refImage) read32(addr uint64) uint32 {
	var b [4]byte
	for i := range b {
		b[i] = r[addr+uint64(i)]
	}
	return binary.LittleEndian.Uint32(b[:])
}

// forkRig drives a parent image and its forks in lockstep with one
// reference model per image.
type forkRig struct {
	t    *testing.T
	imgs []*Flat
	refs []refImage
}

func newForkRig(t *testing.T) *forkRig {
	return &forkRig{t: t, imgs: []*Flat{NewFlat()}, refs: []refImage{{}}}
}

func (r *forkRig) fork(i int) {
	r.imgs = append(r.imgs, r.imgs[i].Fork())
	r.refs = append(r.refs, maps.Clone(r.refs[i]))
}

// adopt makes image i the image j holds and drops j from the rig.
func (r *forkRig) adopt(i, j int) {
	r.imgs[i].Adopt(r.imgs[j])
	r.refs[i] = r.refs[j]
	r.imgs = append(r.imgs[:j], r.imgs[j+1:]...)
	r.refs = append(r.refs[:j], r.refs[j+1:]...)
}

func (r *forkRig) write32(i int, addr uint64, v uint32) {
	r.imgs[i].Write32(addr, v)
	r.refs[i].write32(addr, v)
}

func (r *forkRig) scatter(i int, addrs []uint64, vals []uint32) {
	r.imgs[i].Scatter32(addrs, vals)
	for k, a := range addrs {
		r.refs[i].write32(a, vals[k])
	}
}

func (r *forkRig) writeWords(i int, base uint64, words []uint32) {
	r.imgs[i].WriteWords(base, words)
	for k, w := range words {
		r.refs[i].write32(base+4*uint64(k), w)
	}
}

func (r *forkRig) read32(i int, addr uint64) {
	r.t.Helper()
	if got, want := r.imgs[i].Read32(addr), r.refs[i].read32(addr); got != want {
		r.t.Fatalf("image %d: Read32(%#x) = %#x, reference %#x", i, addr, got, want)
	}
}

func (r *forkRig) gather(i int, addrs []uint64) {
	r.t.Helper()
	out := make([]uint32, len(addrs))
	r.imgs[i].Gather32(addrs, out)
	for k, a := range addrs {
		if want := r.refs[i].read32(a); out[k] != want {
			r.t.Fatalf("image %d: Gather32[%d] @%#x = %#x, reference %#x", i, k, a, out[k], want)
		}
	}
}

func (r *forkRig) readWords(i int, base uint64, n int) {
	r.t.Helper()
	for k, got := range r.imgs[i].ReadWords(base, n) {
		if want := r.refs[i].read32(base + 4*uint64(k)); got != want {
			r.t.Fatalf("image %d: ReadWords(%#x)[%d] = %#x, reference %#x", i, base, k, got, want)
		}
	}
}

// checkAll compares every image with its reference at every address any
// image ever stored to.
func (r *forkRig) checkAll() {
	r.t.Helper()
	seen := map[uint64]bool{}
	for _, ref := range r.refs {
		for a := range ref {
			seen[a&^3] = true
		}
	}
	for a := range seen {
		for i := range r.imgs {
			r.read32(i, a)
		}
	}
}

// farBase is the first page above the 32-bit space: only the far map holds
// it.
const farBase = uint64(lowPages) << pageBits

// A page both images hold in their load caches stays correct when one side
// stores to it: the store copies the page and the writer's load cache moves
// to the copy, while the other side keeps reading the original.
func TestForkReadCachedPageCopiedByWrite(t *testing.T) {
	r := newForkRig(t)
	const a = 3*pageSize + 64
	r.write32(0, a, 1)
	r.fork(0)
	r.read32(0, a) // both images now cache the shared page for loads
	r.read32(1, a)
	r.write32(1, a, 2)   // the fork copies the page
	r.read32(1, a)       // and loads its own copy, not the cached original
	r.read32(0, a)       // the parent still sees 1
	r.write32(0, a+4, 3) // the parent copies too: neither owns the original
	r.read32(0, a+4)
	r.read32(1, a+4)
	r.gather(1, []uint64{a, a + 4, a + 8})
	r.gather(0, []uint64{a, a + 4, a + 8})
	// A fork of a fork shares with both.
	r.fork(1)
	r.write32(2, a, 4)
	r.checkAll()
}

// Pages above the 32-bit space live in the far map and are shared and
// copied like low pages.
func TestForkFarPages(t *testing.T) {
	r := newForkRig(t)
	hi := farBase + 5*pageSize + 16
	r.write32(0, hi, 7)
	r.write32(0, 2*pageSize, 8)
	r.write32(0, farBase-2, 0xa1b2c3d4) // straddles into the far map
	r.fork(0)
	r.scatter(1, []uint64{hi, hi + 4, farBase + 1}, []uint32{9, 10, 11})
	r.read32(0, hi)
	r.writeWords(0, hi-8, []uint32{12, 13, 14})
	r.fork(0)
	r.write32(2, farBase+9*pageSize, 15) // a page only the second fork maps
	r.readWords(1, hi-8, 4)
	r.readWords(2, hi-8, 4)
	r.checkAll()
}

// fuzzAddr decodes an address from three bytes: one of four pages (two low,
// one at the top of the 32-bit space, one far) and an offset biased towards
// page ends, so words straddle pages.
func fuzzAddr(b []byte, aligned bool) uint64 {
	pages := [...]uint64{1, 2, lowPages - 1, lowPages + 3}
	off := uint64(binary.LittleEndian.Uint16(b[1:]))
	if b[0]&4 != 0 {
		off = pageSize - 1 - off%64
	}
	a := pages[b[0]&3]<<pageBits + off
	if aligned {
		a &^= 3
	}
	return a
}

// FuzzFlatFork interleaves stores and loads of every form on a parent image
// and its forks, forks at any point, and makes one image adopt another's,
// checking each image against its own byte-granular reference. Each op is
// eight bytes: kind, image, a three-byte address (whose first byte picks the
// adopted image), a length and a two-byte value seed.
func FuzzFlatFork(f *testing.F) {
	f.Add([]byte{
		0, 0, 0, 0x10, 0, 1, 0xaa, 0xbb, // parent stores
		6, 0, 0, 0, 0, 0, 0, 0, // fork it
		1, 1, 1, 0x10, 0, 5, 0x12, 0x34, // scatter into the fork
		3, 0, 0, 0x10, 0, 0, 0, 0, // parent load
		2, 2, 4, 0, 0, 40, 1, 2, // bulk store across a page end
		4, 1, 5, 0x20, 0, 9, 0, 0, // gather
		5, 2, 2, 0, 0, 30, 0, 0, // bulk load
		7, 0, 1, 0, 0, 0, 0, 0, // the parent adopts the first fork
		0, 0, 0, 0x10, 0, 1, 0xcc, 0xdd, // and stores to a page it shares
		3, 1, 0, 0x10, 0, 0, 0, 0, // which the other fork still reads as before
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newForkRig(t)
		r.write32(0, pageSize+8, 0x01020304)
		r.fork(0)
		r.fork(0)
		for ; len(data) >= 8; data = data[8:] {
			i := int(data[1]) % len(r.imgs)
			n := int(data[5]) % 48
			seed := uint32(binary.LittleEndian.Uint16(data[6:]))
			addr := fuzzAddr(data[2:5], false)
			lanes := func() []uint64 { // spread over the four pages
				addrs := make([]uint64, n)
				for k := range addrs {
					addrs[k] = fuzzAddr([]byte{data[2] + byte(k*5), data[3] + byte(k*37), data[4]}, false)
				}
				return addrs
			}
			vals := func() []uint32 {
				v := make([]uint32, n)
				for k := range v {
					v[k] = seed*0x9e3779b1 + uint32(k)
				}
				return v
			}
			switch data[0] % 8 {
			case 0:
				r.write32(i, addr, seed*0x01010101)
			case 1:
				r.scatter(i, lanes(), vals())
			case 2:
				r.writeWords(i, fuzzAddr(data[2:5], true), vals())
			case 3:
				r.read32(i, addr)
			case 4:
				r.gather(i, lanes())
			case 5:
				r.readWords(i, fuzzAddr(data[2:5], true), n)
			case 6:
				if len(r.imgs) < 6 {
					r.fork(i)
				}
			case 7:
				if j := int(data[2]) % len(r.imgs); j != i {
					r.adopt(i, j)
				}
			}
		}
		r.checkAll()
	})
}
