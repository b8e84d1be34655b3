package workload

import "smarq/internal/guest"

// swimScaled is the shallow-water stencil: five loads feed two stores per cell,
// over ping-pong arrays. Inside the hot region the five array bases are
// unanalyzable live-ins, so every UNEW/VNEW store may-aliases the next
// cell's U/V/P loads — hoisting those loads is the whole game.
//
// Register map: r1=U r2=V r3=P r4=UN r5=VN, r6=i, r7=limit, r8=t, r9=T,
// r10/r11/r12 address temps; f20/f21 constants.
//
// scale multiplies the main loop count (SuiteScaled).
func swimScaled(scale int64) Benchmark {
	const n = 192
	sweeps := 50 * scale
	return Benchmark{
		Name:        "swim",
		Description: "shallow-water stencil, ping-pong arrays",
		MemSize:     defaultMem,
		MaxInsts:    5_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock() // init scalars
			b.Li(1, arrA)
			b.Li(2, arrB)
			b.Li(3, arrC)
			b.Li(4, arrD)
			b.Li(5, arrE)
			b.Li(6, 0)
			b.Li(7, n)
			b.FLi(20, 0.5)
			b.FLi(21, 0.25)

			fill := b.NewBlock() // U[i]=i, V[i]=i*0.5, P[i]=i*0.25+1
			b.CvtIF(0, 6)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			b.FMul(1, 0, 20)
			idx8(b, 10, 2, 6, 11)
			b.FSt8(10, 0, 1)
			b.FMul(2, 0, 21)
			b.FLi(3, 1)
			b.FAdd(2, 2, 3)
			idx8(b, 10, 3, 6, 11)
			b.FSt8(10, 0, 2)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)

			b.NewBlock() // outer sweep setup
			b.Li(8, 0)
			b.Li(9, sweeps)
			outer := b.NewBlock()
			b.Li(6, 1)
			b.Li(7, n-2)

			body := b.NewBlock()     // two cells per trip, stores before the
			for k := 0; k < 2; k++ { // next cell's loads
				idx8(b, 10, 1, 6, 11) // &U[i]
				b.FLd8(0, 10, -8)     // U[i-1]
				b.FLd8(1, 10, 0)      // U[i]
				b.FLd8(2, 10, 8)      // U[i+1]
				idx8(b, 12, 2, 6, 11)
				b.FLd8(3, 12, 0) // V[i]
				idx8(b, 12, 3, 6, 11)
				b.FLd8(4, 12, 0) // P[i]
				b.FAdd(5, 0, 2)
				b.FMul(5, 5, 20)
				b.FMul(6, 3, 4)
				b.FAdd(5, 5, 6)
				idx8(b, 12, 4, 6, 11)
				b.FSt8(12, 0, 5) // UN[i]
				b.FMul(7, 4, 20)
				b.FSub(7, 1, 7)
				idx8(b, 12, 5, 6, 11)
				b.FSt8(12, 0, 7) // VN[i]
				b.Addi(6, 6, 1)
			}
			b.Blt(6, 7, body)

			b.NewBlock() // copy back: U <- UN, V <- VN
			b.Li(6, 1)
			copyBack := b.NewBlock()
			for k := 0; k < 2; k++ {
				idx8(b, 10, 4, 6, 11)
				b.FLd8(0, 10, 0)
				idx8(b, 12, 1, 6, 11)
				b.FSt8(12, 0, 0)
				idx8(b, 10, 5, 6, 11)
				b.FLd8(1, 10, 0)
				idx8(b, 12, 2, 6, 11)
				b.FSt8(12, 0, 1)
				b.Addi(6, 6, 1)
			}
			b.Blt(6, 7, copyBack)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 1, n, 0)
			return b.MustProgram()
		},
	}
}

// mgridScaled is a multigrid-flavoured stencil: neighbour loads feed a deeper
// floating-point chain, and the same-array accesses use per-iteration
// computed addresses — which a binary-level analysis cannot relate, so
// even same-array neighbours are may-alias (a real property of the
// paper's setting, §1).
//
// scale multiplies the main loop count (SuiteScaled).
func mgridScaled(scale int64) Benchmark {
	const n = 160
	sweeps := 40 * scale
	return Benchmark{
		Name:        "mgrid",
		Description: "multigrid stencil, deep FP chains",
		MemSize:     defaultMem,
		MaxInsts:    5_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // R
			b.Li(2, arrB) // U
			b.Li(6, 0)
			b.Li(7, n)
			b.FLi(20, 0.4)
			b.FLi(21, 0.3)

			fill := b.NewBlock()
			b.CvtIF(0, 6)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			idx8(b, 10, 2, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			outer := b.NewBlock()
			b.Li(6, 1)
			b.Li(7, n-2)

			body := b.NewBlock()
			for k := 0; k < 2; k++ {
				idx8(b, 10, 2, 6, 11) // &U[i]
				b.FLd8(1, 10, 0)      // U[i] (must-alias the store below)
				idx8(b, 12, 1, 6, 11) // &R[i]
				b.FLd8(0, 12, -8)     // R[i-1]
				b.FLd8(2, 12, 0)      // R[i]
				b.FLd8(3, 12, 8)      // R[i+1]
				b.FAdd(4, 0, 3)
				b.FMul(4, 4, 20)
				b.FMul(5, 2, 21)
				b.FAdd(4, 4, 5)
				b.FMul(4, 4, 20) // deepen the chain
				b.FAdd(4, 4, 1)
				b.FSt8(10, 0, 4) // U[i] updated through the same vreg
				b.FLd8(6, 10, 0) // immediate reload: load-elimination fodder
				b.FAdd(31, 31, 6)
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

// appluScaled is SSOR with indirectly indexed diagonals: the element to update
// is found through an index table, so its address root is a loaded value —
// exactly the "indexed by non-stack-frame registers" case binary alias
// analysis cannot crack (§7). The read-modify-write of A[idx] crosses the
// B/C loads of the next unrolled iteration.
//
// scale multiplies the main loop count (SuiteScaled).
func appluScaled(scale int64) Benchmark {
	const n = 128
	sweeps := 45 * scale
	return Benchmark{
		Name:        "applu",
		Description: "SSOR with indirect diagonal indexing",
		MemSize:     defaultMem,
		MaxInsts:    5_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // IX: index table
			b.Li(2, arrB) // A: diagonals
			b.Li(3, arrC) // B
			b.Li(4, arrD) // C
			b.Li(6, 0)
			b.Li(7, n)
			b.FLi(20, 0.9)

			fill := b.NewBlock() // IX[i] = (i*7+3) % n, a collision-free walk
			b.Muli(10, 6, 7)
			b.Addi(10, 10, 3)
			b.Li(11, n)
			b.Div(12, 10, 11)
			b.Mul(12, 12, 11)
			b.Sub(10, 10, 12) // mod
			idx8(b, 12, 1, 6, 11)
			b.St8(12, 0, 10)
			b.CvtIF(0, 6)
			idx8(b, 12, 2, 6, 11)
			b.FSt8(12, 0, 0)
			idx8(b, 12, 3, 6, 11)
			b.FSt8(12, 0, 0)
			idx8(b, 12, 4, 6, 11)
			b.FSt8(12, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			outer := b.NewBlock()
			b.Li(6, 0)
			b.Li(7, n-1)

			body := b.NewBlock()
			for k := 0; k < 2; k++ {
				idx8(b, 10, 1, 6, 11)
				b.Ld8(13, 10, 0)       // idx = IX[i]
				idx8(b, 14, 2, 13, 11) // &A[idx] — loaded root
				b.FLd8(0, 14, 0)
				idx8(b, 10, 3, 6, 11)
				b.FLd8(1, 10, 0) // B[i]
				idx8(b, 10, 4, 6, 11)
				b.FLd8(2, 10, 0) // C[i]
				b.FMul(3, 0, 20)
				b.FMul(4, 1, 2)
				b.FAdd(3, 3, 4)
				b.FSt8(14, 0, 3) // A[idx] updated; next k's loads cross this
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

// checksumF appends a loop summing n float64s at the array in base
// register baseReg into f31, converts it to r31, stores it at `out`, and
// halts. Uses r25/r26/r27 and f29/f30.
func checksumF(b *guest.Builder, baseReg guest.Reg, n int64, _ int) {
	b.NewBlock()
	b.Li(25, 0)
	b.Li(26, n)
	b.FLi(30, 0)
	loop := b.NewBlock()
	idx8(b, 27, baseReg, 25, 28)
	b.FLd8(29, 27, 0)
	b.FAdd(30, 30, 29)
	b.Addi(25, 25, 1)
	b.Blt(25, 26, loop)
	b.NewBlock()
	b.CvtFI(31, 30)
	b.Li(25, out)
	b.St8(25, 0, 31)
	b.Halt()
}
