package workload

import "smarq/internal/guest"

// mesaScaled is the store-reordering benchmark (Figure 16: ~13%): a span fill
// writes one slow depth value (behind a floating-point divide) followed by
// eight ready framebuffer stores. Without store reordering the eight
// stores queue behind the slow one on the memory ports; with it they
// drain early.
//
// scale multiplies the main loop count (SuiteScaled).
func mesaScaled(scale int64) Benchmark {
	const rowLen = 512
	rows := 60 * scale
	return Benchmark{
		Name:        "mesa",
		Description: "span rasterization, store-heavy",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(3, arrC) // TEX: 512 entries
			b.Li(6, 0)
			b.Li(7, 512)
			fill := b.NewBlock()
			b.Muli(10, 6, 37)
			b.Addi(10, 10, 11)
			idx8(b, 12, 3, 6, 11)
			b.St8(12, 0, 10)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, rows)
			b.FLi(20, 1.0)
			b.FLi(21, 3.0)
			outer := b.NewBlock() // per-row pointers: set outside the hot
			b.Li(1, arrA)         // region, so their roots are opaque inside
			b.Li(2, arrB)
			b.Li(3, arrC)
			b.Li(6, 0)
			b.Li(7, rowLen)

			body := b.NewBlock() // 8 pixels per trip, pointer-bumped
			// Slow depth store first: its value sits behind an FP divide,
			// and every framebuffer store may-alias it. With store
			// reordering the eight pixel stores drain early; without it
			// they queue behind the divide (the Figure 16 effect).
			b.CvtIF(0, 6)
			b.FAdd(0, 0, 20)
			b.FDiv(1, 21, 0)
			b.CvtFI(13, 1)
			b.St8(2, 0, 13) // Z[i/8] — program-first, value late
			for k := int64(0); k < 8; k++ {
				b.Ld8(17, 3, k*8) // texel
				b.Muli(17, 17, 3)
				b.Addi(17, 17, 7)
				b.St8(1, k*8, 17) // FB pixel
			}
			b.Addi(1, 1, 64)
			b.Addi(2, 2, 8)
			b.Addi(3, 3, 64)
			b.Addi(6, 6, 8)
			b.Blt(6, 7, body)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			b.NewBlock()
			b.Li(1, arrA) // rewind the row pointer for the checksum
			checksumI(b, 1, 64)
			return b.MustProgram()
		},
	}
}

// artScaled is a neural-net gather with weight update: indirect weight loads
// (roots loaded from an index table) cross the previous element's weight-
// update store. The index walk is collision-free, so speculation always
// wins.
//
// scale multiplies the main loop count (SuiteScaled).
func artScaled(scale int64) Benchmark {
	const n = 128
	sweeps := 60 * scale
	return Benchmark{
		Name:        "art",
		Description: "neural-net gather with weight updates",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // W
			b.Li(2, arrB) // X
			b.Li(3, arrC) // IX
			b.Li(6, 0)
			b.Li(7, n)
			b.FLi(20, 0.999)

			fill := b.NewBlock() // IX[j] = (j*11+5) % n; W, X seeded
			b.Muli(10, 6, 11)
			b.Addi(10, 10, 5)
			b.Li(11, n)
			b.Div(12, 10, 11)
			b.Mul(12, 12, 11)
			b.Sub(10, 10, 12)
			idx8(b, 12, 3, 6, 11)
			b.St8(12, 0, 10)
			b.CvtIF(0, 6)
			b.FLi(1, 100)
			b.FDiv(0, 0, 1)
			idx8(b, 12, 1, 6, 11)
			b.FSt8(12, 0, 0)
			idx8(b, 12, 2, 6, 11)
			b.FSt8(12, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			outer := b.NewBlock()
			b.Li(6, 0)
			b.Li(7, n)
			b.FLi(15, 0)

			body := b.NewBlock()
			for k := 0; k < 2; k++ {
				idx8(b, 10, 3, 6, 11)
				b.Ld8(13, 10, 0)       // idx = IX[j]
				idx8(b, 14, 1, 13, 11) // &W[idx], loaded root
				b.FLd8(0, 14, 0)
				idx8(b, 10, 2, 6, 11)
				b.FLd8(1, 10, 0) // X[j]
				b.FMul(2, 0, 1)
				b.FAdd(15, 15, 2)
				b.FMul(3, 0, 20)
				b.FSt8(14, 0, 3) // W[idx] updated; next j's loads cross it
				b.Addi(6, 6, 1)
			}
			b.Blt(6, 7, body)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 1, n, 0)
			return b.MustProgram()
		},
	}
}

// equakeScaled is a sparse kernel whose column indices occasionally equal the
// destination row: the hoisted source loads then genuinely alias the
// row store, so speculation truly fails sometimes — exercising rollback,
// blacklisting and conservative re-optimization.
//
// scale multiplies the main loop count (SuiteScaled).
func equakeScaled(scale int64) Benchmark {
	const n = 96
	sweeps := 60 * scale
	return Benchmark{
		Name:        "equake",
		Description: "sparse matvec with genuine occasional aliasing",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // A (values)
			b.Li(2, arrB) // X (vector, also the destination!)
			b.Li(3, arrC) // COL
			b.Li(6, 0)
			b.Li(7, n*4)

			fill := b.NewBlock() // COL[m] = (m*17 + m*m*3) % n — collides
			b.Muli(10, 6, 17)
			b.Mul(12, 6, 6)
			b.Muli(12, 12, 3)
			b.Add(10, 10, 12)
			b.Li(11, n)
			b.Div(12, 10, 11)
			b.Mul(12, 12, 11)
			b.Sub(10, 10, 12)
			idx8(b, 12, 3, 6, 11)
			b.St8(12, 0, 10)
			b.CvtIF(0, 6)
			b.FLi(1, 500)
			b.FDiv(0, 0, 1)
			idx8(b, 12, 1, 6, 11)
			b.FSt8(12, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)
			b.NewBlock()
			b.Li(6, 0)
			b.Li(7, n)
			fill2 := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 300)
			b.FDiv(0, 0, 1)
			idx8(b, 12, 2, 6, 11)
			b.FSt8(12, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill2)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			outer := b.NewBlock()
			b.Li(6, 0) // row
			b.Li(7, n-1)

			body := b.NewBlock()     // two rows per trip: row u+1's gathers
			for u := 0; u < 2; u++ { // cross row u's X[row+1] store
				b.FLi(15, 0)
				b.Muli(16, 6, 4) // 4 entries per row
				for k := int64(0); k < 4; k++ {
					b.Addi(17, 16, k)
					idx8(b, 10, 3, 17, 11)
					b.Ld8(13, 10, 0)       // col
					idx8(b, 14, 2, 13, 11) // &X[col] — may equal &X[row+1]
					b.FLd8(0, 14, 0)
					idx8(b, 10, 1, 17, 11)
					b.FLd8(1, 10, 0) // A[m]
					b.FMul(2, 0, 1)
					b.FAdd(15, 15, 2)
				}
				b.FLi(0, 2)
				b.FDiv(15, 15, 0)
				idx8(b, 10, 2, 6, 11)
				b.FSt8(10, 8, 15) // X[row+1] = partial
				b.Addi(6, 6, 1)
			}
			b.Blt(6, 7, body)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 2, n, 0)
			return b.MustProgram()
		},
	}
}

// ammpScaled is the register-pressure benchmark: one superblock computes an
// atom's interactions with four indirectly-indexed neighbours — about
// fifty memory operations per block. 16 alias registers cannot hold the
// speculation working set (the paper's §2.2: ammp gains 30% from 64
// registers), and the indirect force read-modify-writes give an
// Itanium-like ALAT chronic false positives. The neighbour table contains
// occasional duplicate indices, so reordered force stores sometimes truly
// alias — the paper notes ammp loses slightly *with* store reordering
// (Figure 16).
//
// scale multiplies the main loop count (SuiteScaled).
func ammpScaled(scale int64) Benchmark {
	const n = 64
	sweeps := 120 * scale
	return Benchmark{
		Name:        "ammp",
		Description: "molecular dynamics, very large superblocks",
		MemSize:     defaultMem,
		MaxInsts:    12_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA)  // X
			b.Li(2, arrB)  // Y
			b.Li(3, arrC)  // Z
			b.Li(4, arrD)  // FX
			b.Li(5, arrE)  // FY
			b.Li(16, arrF) // FZ
			b.Li(17, arrG) // NB: 4 neighbours per atom
			b.Li(6, 0)
			b.Li(7, n)

			fill := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 9)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			idx8(b, 10, 2, 6, 11)
			b.FSt8(10, 0, 0)
			idx8(b, 10, 3, 6, 11)
			b.FSt8(10, 0, 0)
			b.FLi(0, 0)
			idx8(b, 10, 4, 6, 11)
			b.FSt8(10, 0, 0)
			idx8(b, 10, 5, 6, 11)
			b.FSt8(10, 0, 0)
			idx8(b, 10, 16, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)
			b.NewBlock()
			b.Li(6, 0)
			b.Li(7, n*4)
			fillNB := b.NewBlock() // NB[m] = (m*m*13 + m) % n — 8 atoms get a
			b.Mul(10, 6, 6)        // duplicate neighbour, so reordered force
			b.Muli(10, 10, 13)     // stores occasionally truly alias
			b.Muli(12, 6, 1)
			b.Add(10, 10, 12)
			b.Li(11, n)
			b.Div(12, 10, 11)
			b.Mul(12, 12, 11)
			b.Sub(10, 10, 12)
			idx8(b, 12, 17, 6, 11)
			b.St8(12, 0, 10)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fillNB)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			outer := b.NewBlock()
			b.Li(6, 0) // atom i
			b.Li(7, n)

			body := b.NewBlock() // one atom, 4 neighbours, ~43 memory ops
			idx8(b, 10, 1, 6, 11)
			b.FLd8(0, 10, 0) // x0
			idx8(b, 10, 2, 6, 11)
			b.FLd8(1, 10, 0) // y0
			idx8(b, 10, 3, 6, 11)
			b.FLd8(2, 10, 0) // z0
			b.Muli(18, 6, 4)
			for k := int64(0); k < 4; k++ {
				b.Addi(19, 18, k)
				idx8(b, 10, 17, 19, 11)
				b.Ld8(13, 10, 0) // idx = NB[4i+k]
				idx8(b, 14, 1, 13, 11)
				b.FLd8(3, 14, 0) // X[idx]
				idx8(b, 14, 2, 13, 11)
				b.FLd8(4, 14, 0) // Y[idx]
				idx8(b, 14, 3, 13, 11)
				b.FLd8(5, 14, 0) // Z[idx]
				b.FSub(6, 0, 3)  // dx
				b.FSub(7, 1, 4)  // dy
				b.FSub(8, 2, 5)  // dz
				b.FMul(9, 6, 6)
				b.FMul(10, 7, 7)
				b.FMul(11, 8, 8)
				b.FAdd(9, 9, 10)
				b.FAdd(9, 9, 11)
				b.FLi(12, 1)
				b.FAdd(9, 9, 12)
				b.FDiv(9, 12, 9) // f = 1/(r^2+1)
				// Accumulate into the neighbour's forces: three indirect
				// read-modify-writes. Duplicate neighbour indices make
				// reordered RMWs of the same slot genuinely alias.
				idx8(b, 20, 4, 13, 11)
				b.FLd8(13, 20, 0)
				b.FMul(14, 6, 9)
				b.FAdd(13, 13, 14)
				b.FSt8(20, 0, 13) // FX[idx]
				idx8(b, 21, 5, 13, 11)
				b.FLd8(13, 21, 0)
				b.FMul(14, 7, 9)
				b.FAdd(13, 13, 14)
				b.FSt8(21, 0, 13) // FY[idx]
				idx8(b, 22, 16, 13, 11)
				b.FLd8(13, 22, 0)
				b.FMul(14, 8, 9)
				b.FAdd(13, 13, 14)
				b.FSt8(22, 0, 13) // FZ[idx]
			}
			b.Addi(6, 6, 1)
			b.Blt(6, 7, body)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 4, n, 0)
			return b.MustProgram()
		},
	}
}

// checksumI appends a loop summing n int64s at base register baseReg into
// r31, stores it at `out`, and halts.
func checksumI(b *guest.Builder, baseReg guest.Reg, n int64) {
	b.NewBlock()
	b.Li(25, 0)
	b.Li(26, n)
	b.Li(31, 0)
	loop := b.NewBlock()
	idx8(b, 27, baseReg, 25, 28)
	b.Ld8(29, 27, 0)
	b.Add(31, 31, 29)
	b.Addi(25, 25, 1)
	b.Blt(25, 26, loop)
	b.NewBlock()
	b.Li(25, out)
	b.St8(25, 0, 31)
	b.Halt()
}
