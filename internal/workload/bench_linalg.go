package workload

import "smarq/internal/guest"

// wupwiseScaled is a dense 4x4 matrix-vector kernel with a feedback vector: each
// result store is followed (in program order) by the next row's matrix and
// vector loads from different base registers — textbook Figure 2 material.
//
// scale multiplies the main loop count (SuiteScaled).
func wupwiseScaled(scale int64) Benchmark {
	const itersBase = 2500
	iters := itersBase * scale
	return Benchmark{
		Name:        "wupwise",
		Description: "dense matvec with feedback vector",
		MemSize:     defaultMem,
		MaxInsts:    5_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // M: 16 entries
			b.Li(2, arrB) // V: 4
			b.Li(3, arrC) // R: 4
			b.Li(6, 0)
			b.Li(7, 16)
			b.FLi(20, 0.99)

			fill := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 1)
			b.FAdd(0, 0, 1)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)
			b.NewBlock()
			b.Li(6, 0)
			b.Li(7, 4)
			fill2 := b.NewBlock()
			b.FLi(0, 0.5)
			idx8(b, 10, 2, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill2)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, iters)
			body := b.NewBlock()
			for r := int64(0); r < 4; r++ {
				// Row r: load 4 matrix entries and 4 vector entries (the
				// vector loads cross the previous row's result store).
				b.FLd8(0, 1, r*32+0)
				b.FLd8(1, 1, r*32+8)
				b.FLd8(2, 1, r*32+16)
				b.FLd8(3, 1, r*32+24)
				b.FLd8(4, 2, 0)
				b.FLd8(5, 2, 8)
				b.FLd8(6, 2, 16)
				b.FLd8(7, 2, 24)
				b.FMul(8, 0, 4)
				b.FMul(9, 1, 5)
				b.FMul(10, 2, 6)
				b.FMul(11, 3, 7)
				b.FAdd(8, 8, 9)
				b.FAdd(10, 10, 11)
				b.FAdd(8, 8, 10)
				b.FSt8(3, r*8, 8) // R[r]
			}
			// Feedback: V = R * 0.99, normalizing so values stay finite.
			for j := int64(0); j < 4; j++ {
				b.FLd8(12, 3, j*8)
				b.FMul(12, 12, 20)
				b.FLi(13, 64.0)
				b.FDiv(12, 12, 13)
				b.FSt8(2, j*8, 12)
			}
			b.Addi(8, 8, 1)
			b.Blt(8, 9, body)

			checksumF(b, 3, 4, 0)
			return b.MustProgram()
		},
	}
}

// facerecScaled is a sliding-window correlation: eight image/template load pairs
// feed one response store per position. Arrays are disjoint at runtime but
// indistinguishable to the binary-level analysis, so this is the cleanest
// speculation win in the suite.
//
// scale multiplies the main loop count (SuiteScaled).
func facerecScaled(scale int64) Benchmark {
	const n, positions = 256, 200
	passes := 30 * scale
	return Benchmark{
		Name:        "facerec",
		Description: "sliding-window correlation",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // IMG
			b.Li(2, arrB) // TPL (8 entries)
			b.Li(3, arrC) // R
			b.Li(6, 0)
			b.Li(7, n)

			fill := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 3)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)
			b.NewBlock()
			b.Li(6, 0)
			b.Li(7, 8)
			fill2 := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 10)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 2, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill2)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, passes)
			outer := b.NewBlock()
			b.Li(6, 0)
			b.Li(7, positions)

			body := b.NewBlock()     // two positions per trip: position u+1's
			for u := 0; u < 2; u++ { // loads cross position u's R store
				idx8(b, 12, 1, 6, 13) // &IMG[p]
				b.FLi(14, 0)
				for k := int64(0); k < 8; k++ {
					b.FLd8(0, 12, k*8) // IMG[p+k]
					b.FLd8(1, 2, k*8)  // TPL[k]
					b.FMul(2, 0, 1)
					b.FAdd(14, 14, 2)
				}
				idx8(b, 12, 3, 6, 13)
				b.FSt8(12, 0, 14) // R[p]
				b.Addi(6, 6, 1)
			}
			b.Blt(6, 7, body)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 3, positions, 0)
			return b.MustProgram()
		},
	}
}

// apsiScaled runs phases through a pointer descriptor table: the hot loop's
// array bases are themselves loaded from memory, the fully unanalyzable
// case the paper's §7 discussion highlights.
//
// scale multiplies the main loop count (SuiteScaled).
func apsiScaled(scale int64) Benchmark {
	const n = 128
	sweeps := 45 * scale
	return Benchmark{
		Name:        "apsi",
		Description: "pointer-table phases",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrH) // PT: pointer table
			b.Li(10, arrA)
			b.St8(1, 0, 10)
			b.Li(10, arrB)
			b.St8(1, 8, 10)
			b.Li(10, arrC)
			b.St8(1, 16, 10)
			b.Li(2, arrA)
			b.Li(6, 0)
			b.Li(7, n)

			fill := b.NewBlock() // seed all three arrays
			b.CvtIF(0, 6)
			b.FLi(1, 7)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 2, 6, 11)
			b.FSt8(10, 0, 0)
			b.FSt8(10, arrB-arrA, 0)
			b.FSt8(10, arrC-arrA, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			outer := b.NewBlock()
			// Load the phase pointers (roots known only at runtime).
			b.Ld8(2, 1, 0)  // src1
			b.Ld8(3, 1, 8)  // src2
			b.Ld8(4, 1, 16) // dst
			b.Li(6, 0)
			b.Li(7, n)

			body := b.NewBlock()
			for k := 0; k < 2; k++ {
				idx8(b, 10, 2, 6, 11)
				b.FLd8(0, 10, 0)
				idx8(b, 10, 3, 6, 11)
				b.FLd8(1, 10, 0)
				b.FMul(2, 0, 1)
				b.FAdd(2, 2, 0)
				idx8(b, 10, 4, 6, 11)
				b.FSt8(10, 0, 2) // dst[i]; next trip's loads cross it
				b.Addi(6, 6, 1)
			}
			b.Blt(6, 7, body)

			b.NewBlock() // rotate the pointer table for the next phase
			b.Ld8(10, 1, 0)
			b.Ld8(11, 1, 8)
			b.Ld8(12, 1, 16)
			b.St8(1, 0, 11)
			b.St8(1, 8, 12)
			b.St8(1, 16, 10)
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 2, n, 0)
			return b.MustProgram()
		},
	}
}
