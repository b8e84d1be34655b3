// Package workload provides the synthetic benchmark suite standing in for
// the paper's SPECFP2000 programs.
//
// The real benchmarks (and the x86 binaries the paper translated) are not
// available here, so each generator reproduces the *memory behaviour trait*
// the paper attributes to its namesake — the property that makes the
// benchmark interesting for alias speculation:
//
//	wupwise  dense matrix-vector kernels, disjoint arrays, deep FP chains
//	swim     shallow-water stencil: many loads per store, ping-pong arrays
//	mgrid    multigrid stencil: long FP chains behind neighbour loads
//	applu    SSOR with indirectly indexed diagonals (unanalyzable roots)
//	mesa     rasterization: store-heavy spans, one slow store in front —
//	         the store-reordering benchmark (Figure 16: ~13%)
//	galgel   Galerkin coefficients: strided dense sweeps
//	art      neural-net gather: indirect weight loads across update stores
//	equake   sparse matvec with genuine occasional aliasing (rollbacks)
//	facerec  2D correlation: clean disjoint-array speculation
//	ammp     molecular dynamics: very large superblocks, indirect force
//	         accumulation — the register-pressure benchmark (§2.2: +30%
//	         from 64 vs 16 registers) and an ALAT false-positive trap
//	lucas    FFT butterflies: in-place paired updates at opaque distance
//	fma3d    finite elements: node gather/scatter with shared nodes
//	sixtrack particle tracking: independent six-word state maps
//	apsi     mixed pointer-based phases through a descriptor table
//
// Every kernel is written the way dynamic binary optimizers actually see
// code: array base registers are set outside the hot region (so the
// binary-level analysis sees distinct unanalyzable roots), and bodies are
// unrolled with stores of one logical iteration preceding the loads of the
// next — the paper's Figure 2 pattern that makes load hoisting across
// may-alias stores the dominant optimization.
package workload

import (
	"slices"
	"sync"

	"smarq/internal/guest"
)

// Benchmark is one synthetic program.
type Benchmark struct {
	Name        string
	Description string
	// MemSize is the guest memory the program needs.
	MemSize int
	// MaxInsts bounds a full run (all benchmarks halt well below it).
	MaxInsts uint64
	// Build returns the program. For the suite's benchmarks it builds the
	// program on the first call and returns that same immutable
	// *guest.Program on every later call, from every Benchmark value of
	// the same name and scale, for the life of the process.
	Build func() *guest.Program
}

// generators lists the suite's benchmarks in SPECFP2000 order, each at a
// given scale.
var generators = []func(scale int64) Benchmark{
	wupwiseScaled, swimScaled, mgridScaled, appluScaled, mesaScaled,
	galgelScaled, artScaled, equakeScaled, facerecScaled, ammpScaled,
	lucasScaled, fma3dScaled, sixtrackScaled, apsiScaled,
}

// suites holds one suite per scale, built on first use. Each benchmark's
// Build is wrapped in sync.OnceValue, so the program of a (name, scale)
// pair is built once and shared.
var (
	suitesMu sync.Mutex
	suites   = make(map[int64][]Benchmark)
)

// shared returns the process-wide suite at scale (scale < 1 means 1).
// Callers must not modify the returned slice.
func shared(scale int64) []Benchmark {
	scale = max(scale, 1)
	suitesMu.Lock()
	defer suitesMu.Unlock()
	s, ok := suites[scale]
	if !ok {
		s = make([]Benchmark, len(generators))
		for i, gen := range generators {
			s[i] = gen(scale)
			s[i].Build = sync.OnceValue(s[i].Build)
		}
		suites[scale] = s
	}
	return s
}

// Suite returns the full benchmark suite in SPECFP2000 order.
func Suite() []Benchmark { return SuiteScaled(1) }

// SuiteScaled returns the suite with every benchmark's main loop count
// (and instruction budget) multiplied by scale. Scale 1 (or less) is
// Suite(). Longer runs amortize the one-time translation cost, which is
// how the paper's 0.05% optimization overhead (Figure 18) emerges from the
// same machinery that measures ~9% on the short default runs.
func SuiteScaled(scale int64) []Benchmark { return slices.Clone(shared(scale)) }

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) { return ByNameScaled(name, 1) }

// ByNameScaled returns the named benchmark of SuiteScaled(scale).
func ByNameScaled(name string, scale int64) (Benchmark, bool) {
	for _, b := range shared(scale) {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Common base addresses, spaced so arrays are disjoint. The guest programs
// load these with Li in their init blocks; inside a hot region the bases
// are live-in registers with distinct canonical roots.
const (
	arrA = 1 << 13 // 8192
	arrB = 2 << 13
	arrC = 3 << 13
	arrD = 4 << 13
	arrE = 5 << 13
	arrF = 6 << 13
	arrG = 7 << 13
	arrH = 8 << 13
	out  = 9 << 13
)

// defaultMem comfortably covers all base addresses above.
const defaultMem = 10 << 13

// idx8 emits: dst = base + i*8 (the pervasive addressing idiom).
// Clobbers tmp.
func idx8(b *guest.Builder, dst, base, i, tmp guest.Reg) {
	b.Muli(tmp, i, 8)
	b.Add(dst, base, tmp)
}
