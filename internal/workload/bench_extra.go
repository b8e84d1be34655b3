package workload

import "smarq/internal/guest"

// galgelScaled is a Galerkin-method fluid benchmark: column-major sweeps over a
// small dense matrix with strided computed addresses, accumulating into a
// coefficient vector. The row store crosses the next column's strided
// loads.
//
// scale multiplies the main loop count (SuiteScaled).
func galgelScaled(scale int64) Benchmark {
	const m = 24 // m x m matrix
	sweeps := 60 * scale
	return Benchmark{
		Name:        "galgel",
		Description: "Galerkin coefficients, strided dense sweeps",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // A: m*m matrix
			b.Li(2, arrB) // B: vector
			b.Li(3, arrC) // C: coefficients
			b.Li(6, 0)
			b.Li(7, m*m)
			fill := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 37)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)
			b.NewBlock()
			b.Li(6, 0)
			b.Li(7, m)
			fill2 := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 5)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 2, 6, 11)
			b.FSt8(10, 0, 0)
			b.FLi(0, 0)
			idx8(b, 10, 3, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill2)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			outer := b.NewBlock()
			b.Li(6, 0) // column j
			b.Li(7, m)

			body := b.NewBlock()     // two columns per trip: column u+1's
			for u := 0; u < 2; u++ { // strided loads cross column u's store
				b.FLi(14, 0)
				for i := int64(0); i < 4; i++ { // 4-row tile of the column
					b.Muli(10, 6, 8)
					b.Addi(10, 10, i*m*8)
					b.Add(10, 1, 10) // &A[i*m+j] — computed, stride m
					b.FLd8(0, 10, 0)
					idx8(b, 12, 2, 6, 11)
					b.FLd8(1, 12, 0) // B[j]
					b.FMul(2, 0, 1)
					b.FAdd(14, 14, 2)
				}
				idx8(b, 12, 3, 6, 11)
				b.FLd8(3, 12, 0) // C[j] read-modify-write
				b.FAdd(3, 3, 14)
				b.FSt8(12, 0, 3) // C[j]
				b.Addi(6, 6, 1)
			}
			b.Blt(6, 7, body)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 3, m, 0)
			return b.MustProgram()
		},
	}
}

// lucasScaled is the Lucas-Lehmer/FFT benchmark: in-place butterfly pairs — two
// loads and two stores at computed positions i and i+half per butterfly.
// The two stores of one butterfly cross the loads of the next; half the
// accesses are an opaque distance apart, so everything may alias.
//
// scale multiplies the main loop count (SuiteScaled).
func lucasScaled(scale int64) Benchmark {
	const n = 128
	sweeps := 70 * scale
	return Benchmark{
		Name:        "lucas",
		Description: "FFT butterflies, in-place paired updates",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // X
			b.Li(6, 0)
			b.Li(7, n)
			b.FLi(20, 0.5)
			fill := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 11)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			b.Li(15, n/2) // half, set outside the region: opaque inside
			outer := b.NewBlock()
			b.Li(6, 0)
			b.Li(7, n/2)

			body := b.NewBlock()     // two butterflies per trip: the second
			for u := 0; u < 2; u++ { // one's loads cross the first's stores
				idx8(b, 10, 1, 6, 11) // &X[i]
				b.Add(12, 6, 15)      // i + half
				idx8(b, 13, 1, 12, 11)
				b.FLd8(0, 10, 0) // a = X[i]
				b.FLd8(1, 13, 0) // c = X[i+half]
				b.FAdd(2, 0, 1)
				b.FSub(3, 0, 1)
				b.FMul(2, 2, 20)
				b.FMul(3, 3, 20)
				b.FSt8(10, 0, 2) // X[i]
				b.FSt8(13, 0, 3) // X[i+half]
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

// fma3dScaled is the finite-element crash benchmark: per element, gather two
// node positions through an index table, compute a spring force, and
// scatter-add it back into both nodes — a lighter cousin of ammp's
// indirect force accumulation with genuine occasional sharing (adjacent
// elements share a node).
//
// scale multiplies the main loop count (SuiteScaled).
func fma3dScaled(scale int64) Benchmark {
	const nodes, elems = 96, 95
	sweeps := 50 * scale
	return Benchmark{
		Name:        "fma3d",
		Description: "finite elements, node gather/scatter",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // POS
			b.Li(2, arrB) // FRC
			b.Li(3, arrC) // N1 index table
			b.Li(4, arrD) // N2 index table
			b.Li(6, 0)
			b.Li(7, nodes)
			fill := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 13)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			b.FLi(0, 0)
			idx8(b, 10, 2, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)
			b.NewBlock() // element connectivity: element e joins nodes e and e+1
			b.Li(6, 0)
			b.Li(7, elems)
			fillE := b.NewBlock()
			idx8(b, 10, 3, 6, 11)
			b.St8(10, 0, 6)
			b.Addi(12, 6, 1)
			idx8(b, 10, 4, 6, 11)
			b.St8(10, 0, 12)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fillE)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, sweeps)
			b.FLi(20, 0.01)
			outer := b.NewBlock()
			b.Li(6, 0)
			b.Li(7, elems)

			body := b.NewBlock() // one element: gather, force, scatter-add
			idx8(b, 10, 3, 6, 11)
			b.Ld8(13, 10, 0) // n1
			idx8(b, 10, 4, 6, 11)
			b.Ld8(14, 10, 0)       // n2 (== next element's n1: real sharing)
			idx8(b, 16, 1, 13, 11) // &POS[n1]
			b.FLd8(0, 16, 0)
			idx8(b, 17, 1, 14, 11) // &POS[n2]
			b.FLd8(1, 17, 0)
			b.FSub(2, 1, 0) // dx
			b.FMul(3, 2, 20)
			idx8(b, 18, 2, 13, 11) // &FRC[n1] RMW
			b.FLd8(4, 18, 0)
			b.FAdd(4, 4, 3)
			b.FSt8(18, 0, 4)
			idx8(b, 19, 2, 14, 11) // &FRC[n2] RMW — truly aliases the next
			b.FLd8(5, 19, 0)       // element's FRC[n1] access
			b.FSub(5, 5, 3)
			b.FSt8(19, 0, 5)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, body)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 2, nodes, 0)
			return b.MustProgram()
		},
	}
}

// sixtrackScaled is the particle-tracking benchmark: each particle's six-word
// state is loaded, pushed through a deep floating-point map, and stored
// back. Particles are independent, so hoisting the next particle's loads
// above this particle's stores is pure profit — but the state pointers
// are opaque, so only alias hardware permits it.
//
// scale multiplies the main loop count (SuiteScaled).
func sixtrackScaled(scale int64) Benchmark {
	const particles = 48
	turns := 90 * scale
	return Benchmark{
		Name:        "sixtrack",
		Description: "particle tracking, six-word state maps",
		MemSize:     defaultMem,
		MaxInsts:    8_000_000 * uint64(scale),
		Build: func() *guest.Program {
			b := guest.NewBuilder()
			b.NewBlock()
			b.Li(1, arrA) // STATE: particles*6 float64
			b.Li(6, 0)
			b.Li(7, particles*6)
			fill := b.NewBlock()
			b.CvtIF(0, 6)
			b.FLi(1, 17)
			b.FDiv(0, 0, 1)
			idx8(b, 10, 1, 6, 11)
			b.FSt8(10, 0, 0)
			b.Addi(6, 6, 1)
			b.Blt(6, 7, fill)

			b.NewBlock()
			b.Li(8, 0)
			b.Li(9, turns)
			b.FLi(20, 0.999)
			b.FLi(21, 0.002)
			outer := b.NewBlock()
			b.Li(6, 0)
			b.Li(7, particles)

			body := b.NewBlock()     // two particles per trip, with opaque
			for u := 0; u < 2; u++ { // computed addresses: particle u+1's
				b.Muli(10, 6, 48) //     loads cross particle u's stores
				b.Add(14, 1, 10)  // &STATE[i*6]
				for k := int64(0); k < 6; k++ {
					b.FLd8(guest.Reg(k), 14, k*8)
				}
				// Symplectic-ish map: rotate position/momentum pairs.
				for p := 0; p < 3; p++ {
					x := guest.Reg(2 * p)
					v := guest.Reg(2*p + 1)
					b.FMul(10, x, 20)
					b.FMul(11, v, 21)
					b.FSub(10, 10, 11)
					b.FMul(12, v, 20)
					b.FMul(13, x, 21)
					b.FAdd(12, 12, 13)
					b.FMov(x, 10)
					b.FMov(v, 12)
				}
				for k := int64(0); k < 6; k++ {
					b.FSt8(14, k*8, guest.Reg(k))
				}
				b.Addi(6, 6, 1)
			}
			b.Blt(6, 7, body)

			b.NewBlock()
			b.Addi(8, 8, 1)
			b.Blt(8, 9, outer)

			checksumF(b, 1, particles*6, 0)
			return b.MustProgram()
		},
	}
}
