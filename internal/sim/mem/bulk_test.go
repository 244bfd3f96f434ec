package mem

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// bulkRun writes n words at base of an image through each bulk writer in
// turn and holds every word of the run, and the words on either side of it,
// to Read32; the bulk readers must read back what Read32 does. With fork set
// the run goes to a copy-on-write fork of a populated parent, which must
// read as it did before.
func bulkRun(t *testing.T, base uint64, n int, fork bool, seed uint32) {
	t.Helper()
	parent := NewFlat()
	for a := base &^ pageMask; a < base+4*uint64(n)+pageSize; a += 4092 {
		parent.Write32(a&^3, uint32(a)*0x9e3779b1)
	}
	m := parent
	if fork {
		m = parent.Fork()
	}
	before := func(img *Flat) []uint32 { // the run and one word on each side
		w := make([]uint32, n+2)
		for i := range w {
			w[i] = img.Read32(base - 4 + 4*uint64(i))
		}
		return w
	}
	parentBefore := before(parent)
	edges := before(m)

	word := func(i int, k uint32) uint32 { return (seed+k)*0x85ebca6b ^ uint32(i)*0xc2b2ae35 }
	check := func(what string, k uint32) {
		t.Helper()
		if got := m.Read32(base - 4); got != edges[0] {
			t.Fatalf("%s(%#x, %d): the word before the run reads %#x, was %#x", what, base, n, got, edges[0])
		}
		if got := m.Read32(base + 4*uint64(n)); got != edges[n+1] {
			t.Fatalf("%s(%#x, %d): the word after the run reads %#x, was %#x", what, base, n, got, edges[n+1])
		}
		words, floats := m.ReadWords(base, n), m.ReadFloats(base, n)
		for i := 0; i < n; i++ {
			addr := base + 4*uint64(i)
			want := word(i, k)
			if got := m.Read32(addr); got != want {
				t.Fatalf("%s(%#x, %d): word %d reads %#x, want %#x", what, base, n, i, got, want)
			}
			if words[i] != want {
				t.Fatalf("ReadWords(%#x, %d)[%d] = %#x, Read32 %#x", base, n, i, words[i], want)
			}
			if math.Float32bits(floats[i]) != want {
				t.Fatalf("ReadFloats(%#x, %d)[%d] has bits %#x, Read32 %#x", base, n, i, math.Float32bits(floats[i]), want)
			}
		}
	}

	words, floats := make([]uint32, n), make([]float32, n)
	for i := range words {
		words[i] = word(i, 1)
		floats[i] = math.Float32frombits(word(i, 2))
	}
	m.WriteWords(base, words)
	check("WriteWords", 1)
	m.WriteFloats(base, floats)
	check("WriteFloats", 2)
	at := 0
	m.FillWords(base, n, func(run []uint32) {
		for i := range run {
			run[i] = word(at+i, 3)
		}
		at += len(run)
	})
	check("FillWords", 3)
	at = 0
	m.FillFloats(base, n, func(run []float32) {
		for i := range run {
			run[i] = math.Float32frombits(word(at+i, 4))
		}
		at += len(run)
	})
	check("FillFloats", 4)

	if fork {
		for i, w := range before(parent) {
			if w != parentBefore[i] {
				t.Fatalf("a bulk write to a fork moved the parent's word %d: %#x, was %#x", i, w, parentBefore[i])
			}
		}
	}
}

// TestBulkRunsMatchWordAccess runs random word-aligned runs that start
// anywhere in a page and cross up to three page ends, on fresh images and
// on forks, in the 32-bit space and above it.
func TestBulkRunsMatchWordAccess(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for c := 0; c < 48; c++ {
		pn := []uint64{1, 7, lowPages - 2, lowPages + 5}[c%4]
		base := pn<<pageBits + 4*rng.Uint64N(pageSize/4)
		n := rng.IntN(3*pageSize/4 + 2)
		bulkRun(t, base, n, c%3 == 0, rng.Uint32())
	}
	bulkRun(t, 3<<pageBits, 0, false, 5)            // empty
	bulkRun(t, 4<<pageBits-4, 2, true, 6)           // one word either side of a page end
	bulkRun(t, 4<<pageBits, 2*pageSize/4, false, 7) // exactly two pages
}

// TestBulkRunsRejectUnalignedBase keeps every bulk accessor's panic on a
// base that is not word-aligned.
func TestBulkRunsRejectUnalignedBase(t *testing.T) {
	m := NewFlat()
	for name, f := range map[string]func(){
		"WriteWords":  func() { m.WriteWords(pageSize+2, []uint32{1}) },
		"WriteFloats": func() { m.WriteFloats(pageSize+1, []float32{1}) },
		"FillWords":   func() { m.FillWords(2*pageSize-2, 1, func([]uint32) {}) },
		"FillFloats":  func() { m.FillFloats(pageSize+2, 1, func([]float32) {}) },
		"ReadWords":   func() { m.ReadWords(pageSize+1, 1) },
		"ReadFloats":  func() { m.ReadFloats(pageSize+3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at an unaligned base did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzBulkRuns decodes a run from eight bytes: a page pick and fork bit, a
// two-byte word offset into the page, a three-byte length in words (below
// three pages) and a two-byte value seed.
func FuzzBulkRuns(f *testing.F) {
	f.Add([]byte{0, 0xf0, 0x3f, 0x20, 0, 0, 1, 2})    // 32 words across a page end
	f.Add([]byte{5, 0, 0, 0, 0x80, 0, 3, 4})          // two pages from a page start, forked
	f.Add([]byte{2, 0xff, 0x3f, 0xff, 0xbf, 0, 5, 6}) // top of the 32-bit space
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 8 {
			return
		}
		pn := []uint64{1, 9, lowPages - 3, lowPages + 2}[b[0]&3]
		base := pn<<pageBits + 4*(uint64(binary.LittleEndian.Uint16(b[1:]))%(pageSize/4))
		n := int(uint32(b[3])|uint32(b[4])<<8|uint32(b[5])<<16) % (3 * pageSize / 4)
		bulkRun(t, base, n, b[0]&4 != 0, uint32(binary.LittleEndian.Uint16(b[6:])))
	})
}
