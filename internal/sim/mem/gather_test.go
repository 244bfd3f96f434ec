package mem

import (
	"math/rand"
	"testing"

	"photon/internal/testutil"
)

// wordMem is the surface Flat and FlatView share; every case below runs on
// both, and each must match a per-word Read32/Write32 reference.
type wordMem interface {
	Read32(addr uint64) uint32
	Write32(addr uint64, v uint32)
	Gather32(addrs []uint64, out []uint32)
	Scatter32(addrs []uint64, vals []uint32)
}

func memKinds() map[string]func() wordMem {
	return map[string]func() wordMem{
		"Flat":     func() wordMem { return NewFlat() },
		"FlatView": func() wordMem { return NewFlat().View() },
	}
}

// gatherCases are the address patterns a 64-lane access can present.
func gatherCases() map[string][]uint64 {
	cases := map[string][]uint64{
		"empty": {},
		"unaligned-straddle": {
			3*pageSize - 1, 3*pageSize - 2, 3*pageSize - 3, // words split 1/3, 2/2, 3/1 across pages
			3*pageSize - 4, 3 * pageSize, // the last and first whole words either side
		},
		"duplicates": {4096, 8192, 4096, 4096, 8192, 4098, 4096}, // incl. an overlapping unaligned word
		"never-touched": {40 * pageSize, 41*pageSize + 8, 1<<32 + 16, ^uint64(0) - 3,
			^uint64(0) - 1}, // the last one wraps around the address space
	}
	var cross, strided, scattered []uint64
	r := rand.New(rand.NewSource(5))
	for lane := uint64(0); lane < 64; lane++ {
		cross = append(cross, 5*pageSize-32*4+lane*4)   // unit stride, page boundary at lane 32
		strided = append(strided, 7*pageSize+lane*4100) // a new page every 16 lanes, unaligned
		scattered = append(scattered, uint64(r.Intn(8*pageSize))+pageSize)
	}
	cases["crosses-page-mid-instruction"] = cross
	cases["strided"] = strided
	cases["scattered"] = scattered
	return cases
}

func TestGatherScatterMatchWordAccess(t *testing.T) {
	for kind, mk := range memKinds() {
		for name, addrs := range gatherCases() {
			t.Run(kind+"/"+name, func(t *testing.T) {
				got, want := mk(), mk()
				vals := make([]uint32, len(addrs))
				for i := range vals {
					vals[i] = 0xa5000000 + uint32(i)*0x01010101
				}
				// Scatter == Write32 in index order: the last duplicate wins.
				got.Scatter32(addrs, vals)
				for i, a := range addrs {
					want.Write32(a, vals[i])
				}
				// Gather == Read32 in index order, over both images.
				out := make([]uint32, len(addrs))
				got.Gather32(addrs, out)
				for i, a := range addrs {
					if w := want.Read32(a); out[i] != w {
						t.Fatalf("Gather32[%d] @%#x = %#x, Write32/Read32 reference %#x", i, a, out[i], w)
					}
					if g := got.Read32(a); g != out[i] {
						t.Fatalf("Read32 @%#x = %#x after Scatter32, Gather32 saw %#x", a, g, out[i])
					}
				}
				// Neighbouring bytes must be untouched: compare a margin
				// around every address word by word.
				for _, a := range addrs {
					for d := uint64(0); d <= 16; d += 4 {
						for _, p := range []uint64{a - d, a + d} {
							if g, w := got.Read32(p), want.Read32(p); g != w {
								t.Fatalf("mem[%#x] = %#x, reference %#x", p, g, w)
							}
						}
					}
				}
			})
		}
	}
}

// TestGatherNeverTouchedReadsZero: a gather may be the first access a page
// ever sees.
func TestGatherNeverTouchedReadsZero(t *testing.T) {
	for kind, mk := range memKinds() {
		m := mk()
		addrs := []uint64{9 * pageSize, 9*pageSize - 2, 1 << 40, 12}
		out := []uint32{1, 2, 3, 4}
		m.Gather32(addrs, out)
		for i, v := range out {
			if v != 0 {
				t.Fatalf("%s: Gather32 of untouched %#x = %#x, want 0", kind, addrs[i], v)
			}
		}
	}
}

// TestFlatViewSharesFlatImage: what a view scatters the Flat (and another
// view) gathers, and vice versa.
func TestFlatViewSharesFlatImage(t *testing.T) {
	f := NewFlat()
	v1, v2 := f.View(), f.View()
	addrs := gatherCases()["crosses-page-mid-instruction"]
	vals := make([]uint32, len(addrs))
	for i := range vals {
		vals[i] = uint32(i) + 1
	}
	v1.Scatter32(addrs, vals)
	for name, m := range map[string]wordMem{"Flat": f, "other view": v2} {
		out := make([]uint32, len(addrs))
		m.Gather32(addrs, out)
		for i := range out {
			if out[i] != vals[i] {
				t.Fatalf("%s gathers %#x at lane %d, view scattered %#x", name, out[i], i, vals[i])
			}
		}
	}
	f.Scatter32(addrs[:1], []uint32{77})
	out := []uint32{0}
	v2.Gather32(addrs[:1], out)
	if out[0] != 77 {
		t.Fatalf("view gathers %d after Flat scattered 77", out[0])
	}
}

// TestGatherScatterZeroAlloc pins the whole-instruction memory path: once
// its pages exist, a 64-lane gather or scatter allocates nothing.
func TestGatherScatterZeroAlloc(t *testing.T) {
	for kind, mk := range memKinds() {
		m := mk()
		addrs := gatherCases()["strided"]
		vals := make([]uint32, len(addrs))
		m.Scatter32(addrs, vals)
		testutil.MustZeroAllocs(t, kind+" Gather32+Scatter32", func() {
			m.Gather32(addrs, vals)
			m.Scatter32(addrs, vals)
		})
	}
}
