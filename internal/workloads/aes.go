package workloads

import (
	"fmt"

	"photon/internal/sim/isa"
	"photon/internal/sim/kernel"
	"photon/internal/sim/mem"
)

// AES-256 as a GPU kernel: each thread encrypts one 16-byte block with the
// classic four T-table formulation. The tables and the expanded key schedule
// are computed on the host (below, from first principles) and placed in GPU
// memory; the kernel is a long straight-line instruction sequence with
// data-dependent table lookups — the paper's example of a "long instruction
// sequence" complex workload.

// aesSbox computes the AES S-box from GF(2^8) inversion and the affine map.
func aesSbox() [256]byte {
	var sbox [256]byte
	// Build log/antilog tables over GF(2^8) with generator 3.
	var exp [256]byte
	var lg [256]byte
	x := byte(1)
	for i := 0; i < 255; i++ {
		exp[i] = x
		lg[x] = byte(i)
		// multiply x by 3 = x ^ xtime(x)
		x ^= xtime(x)
	}
	inv := func(a byte) byte {
		if a == 0 {
			return 0
		}
		return exp[(255-int(lg[a]))%255]
	}
	for i := 0; i < 256; i++ {
		v := inv(byte(i))
		// Affine transformation.
		s := v ^ rotl8(v, 1) ^ rotl8(v, 2) ^ rotl8(v, 3) ^ rotl8(v, 4) ^ 0x63
		sbox[i] = s
	}
	return sbox
}

func xtime(a byte) byte {
	if a&0x80 != 0 {
		return a<<1 ^ 0x1b
	}
	return a << 1
}

func rotl8(a byte, n uint) byte { return a<<n | a>>(8-n) }

// aesTables returns Te0..Te3, the round-function tables.
func aesTables() (te [4][256]uint32, sboxW [256]uint32) {
	sbox := aesSbox()
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		s3 := s2 ^ s
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te[0][i] = w
		te[1][i] = w>>8 | w<<24
		te[2][i] = w>>16 | w<<16
		te[3][i] = w>>24 | w<<8
		sboxW[i] = uint32(s)
	}
	return te, sboxW
}

// aesExpandKey256 produces the 60-word AES-256 key schedule.
func aesExpandKey256(key [32]byte) [60]uint32 {
	sbox := aesSbox()
	var w [60]uint32
	for i := 0; i < 8; i++ {
		w[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rcon := uint32(1)
	subWord := func(x uint32) uint32 {
		return uint32(sbox[x>>24])<<24 | uint32(sbox[(x>>16)&0xff])<<16 |
			uint32(sbox[(x>>8)&0xff])<<8 | uint32(sbox[x&0xff])
	}
	for i := 8; i < 60; i++ {
		t := w[i-1]
		switch {
		case i%8 == 0:
			t = subWord(t<<8|t>>24) ^ rcon<<24
			rcon = uint32(xtime(byte(rcon)))
		case i%8 == 4:
			t = subWord(t)
		}
		w[i] = w[i-8] ^ t
	}
	return w
}

// aesEncryptBlockRef is the host reference encryption (T-table formulation,
// identical math to the kernel). Words are big-endian packed.
func aesEncryptBlockRef(rk [60]uint32, in [4]uint32) [4]uint32 {
	te, sboxW := aesTables()
	s := [4]uint32{in[0] ^ rk[0], in[1] ^ rk[1], in[2] ^ rk[2], in[3] ^ rk[3]}
	for r := 1; r < 14; r++ {
		var t [4]uint32
		for i := 0; i < 4; i++ {
			t[i] = te[0][s[i]>>24] ^
				te[1][(s[(i+1)%4]>>16)&0xff] ^
				te[2][(s[(i+2)%4]>>8)&0xff] ^
				te[3][s[(i+3)%4]&0xff] ^
				rk[4*r+i]
		}
		s = t
	}
	var out [4]uint32
	for i := 0; i < 4; i++ {
		out[i] = sboxW[s[i]>>24]<<24 |
			sboxW[(s[(i+1)%4]>>16)&0xff]<<16 |
			sboxW[(s[(i+2)%4]>>8)&0xff]<<8 |
			sboxW[s[(i+3)%4]&0xff]
		out[i] ^= rk[56+i]
	}
	return out
}

// aesProgram emits the kernel. State words live in v10..v13. Args: s8=in,
// s9=out, s10=rk (key schedule), s11=te0, s12=te1, s13=te2, s14=te3,
// s15=sbox, s16=n (blocks).
func aesProgram() *isa.Program {
	b := isa.NewBuilder("aes256")
	const (
		vTID, vOff = 1, 2
		vS         = 10 // v10..v13 state
		vT         = 14 // v14..v17 next state
		vTmp       = 18
		vTmp2      = 19
		sRK        = 4 // running round-key pointer
		sW         = 5 // loaded round-key word
	)
	emitTID(b, vTID, 6)
	emitBoundsGuard(b, vTID, 16, 0, "done")
	b.I(isa.OpVLShl, isa.V(vOff), isa.V(vTID), isa.Imm(4)) // block byte offset
	b.I(isa.OpVAdd, isa.V(3), isa.V(vOff), isa.S(8))
	for i := 0; i < 4; i++ {
		b.Load(isa.OpVLoad, isa.V(vS+i), isa.V(3), int32(4*i))
	}
	b.Waitcnt(0)
	b.I(isa.OpSMov, isa.S(sRK), isa.S(10))
	// Initial whitening.
	for i := 0; i < 4; i++ {
		b.Load(isa.OpSLoad, isa.S(sW), isa.S(sRK), int32(4*i))
		b.I(isa.OpVXor, isa.V(vS+i), isa.V(vS+i), isa.S(sW))
	}
	// lookup emits: vDst ^= table[byte(vSrc >> shift)], where table entries
	// are uint32. first selects mov instead of xor.
	lookup := func(dst, src int, shift int32, tableS int, first bool) {
		if shift == 24 {
			b.I(isa.OpVLShr, isa.V(vTmp), isa.V(src), isa.Imm(24))
		} else if shift == 0 {
			b.I(isa.OpVAnd, isa.V(vTmp), isa.V(src), isa.Imm(0xff))
		} else {
			b.I(isa.OpVLShr, isa.V(vTmp), isa.V(src), isa.Imm(shift))
			b.I(isa.OpVAnd, isa.V(vTmp), isa.V(vTmp), isa.Imm(0xff))
		}
		b.I(isa.OpVLShl, isa.V(vTmp), isa.V(vTmp), isa.Imm(2))
		b.I(isa.OpVAdd, isa.V(vTmp), isa.V(vTmp), isa.S(tableS))
		b.Load(isa.OpVLoad, isa.V(vTmp2), isa.V(vTmp), 0)
		b.Waitcnt(0)
		if first {
			b.I(isa.OpVMov, isa.V(dst), isa.V(vTmp2))
		} else {
			b.I(isa.OpVXor, isa.V(dst), isa.V(dst), isa.V(vTmp2))
		}
	}
	// 13 main rounds.
	for r := 1; r < 14; r++ {
		b.I(isa.OpSAdd, isa.S(sRK), isa.S(sRK), isa.Imm(16))
		for i := 0; i < 4; i++ {
			lookup(vT+i, vS+i, 24, 11, true)
			lookup(vT+i, vS+(i+1)%4, 16, 12, false)
			lookup(vT+i, vS+(i+2)%4, 8, 13, false)
			lookup(vT+i, vS+(i+3)%4, 0, 14, false)
			b.Load(isa.OpSLoad, isa.S(sW), isa.S(sRK), int32(4*i))
			b.I(isa.OpVXor, isa.V(vT+i), isa.V(vT+i), isa.S(sW))
		}
		for i := 0; i < 4; i++ {
			b.I(isa.OpVMov, isa.V(vS+i), isa.V(vT+i))
		}
	}
	// Final round: S-box only, bytes reassembled by shifts.
	b.I(isa.OpSAdd, isa.S(sRK), isa.S(sRK), isa.Imm(16))
	sboxByte := func(dst, src int, shift int32, outShift int32, first bool) {
		lookup(vTmp2, src, shift, 15, true) // vTmp2 = sbox[byte]
		if outShift > 0 {
			b.I(isa.OpVLShl, isa.V(vTmp2), isa.V(vTmp2), isa.Imm(outShift))
		}
		if first {
			b.I(isa.OpVMov, isa.V(dst), isa.V(vTmp2))
		} else {
			b.I(isa.OpVOr, isa.V(dst), isa.V(dst), isa.V(vTmp2))
		}
	}
	for i := 0; i < 4; i++ {
		sboxByte(vT+i, vS+i, 24, 24, true)
		sboxByte(vT+i, vS+(i+1)%4, 16, 16, false)
		sboxByte(vT+i, vS+(i+2)%4, 8, 8, false)
		sboxByte(vT+i, vS+(i+3)%4, 0, 0, false)
		b.Load(isa.OpSLoad, isa.S(sW), isa.S(sRK), int32(4*i))
		b.I(isa.OpVXor, isa.V(vT+i), isa.V(vT+i), isa.S(sW))
	}
	// Store ciphertext.
	b.I(isa.OpVAdd, isa.V(3), isa.V(vOff), isa.S(9))
	for i := 0; i < 4; i++ {
		b.Store(isa.OpVStore, isa.V(3), isa.V(vT+i), int32(4*i))
	}
	emitEpilogue(b, 0, "done")
	return b.MustBuild()
}

// BuildAES constructs the AES-256 benchmark (Hetero-Mark) at the given
// problem size in warps; each thread encrypts one block.
func BuildAES(warps int) (*App, error) {
	if warps <= 0 {
		return nil, fmt.Errorf("aes: warps must be positive")
	}
	m := mem.NewFlat()
	nBlocks := warps * kernel.WavefrontSize
	in := m.Alloc(uint64(16 * nBlocks))
	out := m.Alloc(uint64(16 * nBlocks))

	var key [32]byte
	rng := NewRNG(0xae5)
	for i := range key {
		key[i] = byte(rng.Uint64())
	}
	rk := aesExpandKey256(key)
	rkBuf := m.Alloc(4 * 60)
	m.WriteWords(rkBuf, rk[:])

	te, sboxW := aesTables()
	var teBuf [4]uint64
	for i := range te {
		teBuf[i] = m.Alloc(4 * 256)
		m.WriteWords(teBuf[i], te[i][:])
	}
	sboxBuf := m.Alloc(4 * 256)
	m.WriteWords(sboxBuf, sboxW[:])

	hostIn := make([]uint32, 4*nBlocks)
	for i := range hostIn {
		hostIn[i] = uint32(rng.Uint64())
	}
	m.WriteWords(in, hostIn)

	l := &kernel.Launch{
		Name:          "aes",
		Program:       aesProgram(),
		Memory:        m,
		NumWorkgroups: warps,
		WarpsPerGroup: 1,
		Args: []uint32{
			uint32(in), uint32(out), uint32(rkBuf),
			uint32(teBuf[0]), uint32(teBuf[1]), uint32(teBuf[2]), uint32(teBuf[3]),
			uint32(sboxBuf), uint32(nBlocks),
		},
	}
	app := &App{Name: "AES", Mem: m, Launches: []*kernel.Launch{l}}
	app.Check = func() error {
		for blk := 0; blk < nBlocks; blk += max(1, nBlocks/97) {
			var pt [4]uint32
			copy(pt[:], hostIn[4*blk:])
			want := aesEncryptBlockRef(rk, pt)
			for i := 0; i < 4; i++ {
				got := m.Read32(out + uint64(16*blk+4*i))
				if got != want[i] {
					return fmt.Errorf("aes: block %d word %d = %#x, want %#x", blk, i, got, want[i])
				}
			}
		}
		return nil
	}
	return app, nil
}
