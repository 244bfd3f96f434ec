package mem

import (
	"math/rand"
	"testing"

	"photon/internal/testutil"
)

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

// Every case must match a per-word Read32/Write32 reference.
func TestGatherScatterMatchWordAccess(t *testing.T) {
	for name, addrs := range gatherCases() {
		t.Run("Flat/"+name, func(t *testing.T) {
			got, want := NewFlat(), NewFlat()
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

// TestGatherNeverTouchedReadsZero: a gather may be the first access a page
// ever sees.
func TestGatherNeverTouchedReadsZero(t *testing.T) {
	m := NewFlat()
	addrs := []uint64{9 * pageSize, 9*pageSize - 2, 1 << 40, 12}
	out := []uint32{1, 2, 3, 4}
	m.Gather32(addrs, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("Gather32 of untouched %#x = %#x, want 0", addrs[i], v)
		}
	}
}

// TestGatherScatterZeroAlloc pins the whole-instruction memory path: once
// its pages exist, a 64-lane gather or scatter allocates nothing.
func TestGatherScatterZeroAlloc(t *testing.T) {
	m := NewFlat()
	addrs := gatherCases()["strided"]
	vals := make([]uint32, len(addrs))
	m.Scatter32(addrs, vals)
	testutil.MustZeroAllocs(t, "Flat Gather32+Scatter32", func() {
		m.Gather32(addrs, vals)
		m.Scatter32(addrs, vals)
	})
}

// mapped counts the pages the memory has created.
func (m *Flat) mapped() int {
	n := len(m.far)
	for _, p := range m.low {
		if p != nil {
			n++
		}
	}
	return n
}

// TestReadsMapNoPage: every read entry point sees zeros over a range nobody
// wrote without mapping a page there, and what a later store writes to that
// range lands in the memory's own page — a second memory, whose reads of the
// same addresses go through the same shared zero page, still sees zeros.
func TestReadsMapNoPage(t *testing.T) {
	m, other := NewFlat(), NewFlat()
	addrs := gatherCases()["never-touched"]
	addrs = append(addrs, 20*pageSize-2) // a word straddling two unmapped pages
	out := make([]uint32, len(addrs))
	zeros := func(m *Flat, when string) {
		t.Helper()
		m.Gather32(addrs, out)
		for i, a := range addrs {
			if out[i] != 0 || m.Read32(a) != 0 {
				t.Fatalf("%s: untouched %#x reads %#x / %#x", when, a, out[i], m.Read32(a))
			}
		}
		for _, w := range m.ReadWords(40*pageSize-8, 8) { // crosses into an unmapped page
			if w != 0 {
				t.Fatalf("%s: ReadWords over an untouched range = %#x", when, w)
			}
		}
		if f := m.ReadFloats(41*pageSize, 4); f[0] != 0 || f[3] != 0 {
			t.Fatalf("%s: ReadFloats over an untouched range = %v", when, f)
		}
		if n := m.mapped(); n != 0 {
			t.Fatalf("%s: reads mapped %d pages", when, n)
		}
	}
	zeros(m, "fresh memory")

	vals := make([]uint32, len(addrs))
	for i := range vals {
		vals[i] = 0xc0de0000 + uint32(i)
	}
	m.Scatter32(addrs, vals)
	m.Gather32(addrs, out)
	for i := range addrs {
		if i == 3 {
			continue // the wrapping word after it overwrote its top half
		}
		if out[i] != vals[i] {
			t.Fatalf("after Scatter32, %#x reads %#x, want %#x", addrs[i], out[i], vals[i])
		}
	}
	if m.mapped() == 0 {
		t.Fatal("Scatter32 mapped no page")
	}
	zeros(other, "after another memory's scatter")
}
