package region

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"smarq/internal/guest"
	"smarq/internal/interp"
)

// TestFormSharesTrace: forming one trace twice returns one superblock,
// also for another profile or config that chooses the same trace, and a
// different trace of the same seed (another unroll factor, or the same
// chain to another final target) gets its own.
func TestFormSharesTrace(t *testing.T) {
	prog := loopProgram()
	a, err := Form(prog, profileOf(t, prog), 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Form(prog, profileOf(t, prog), 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("forming the same trace twice returned two superblocks")
	}
	cfg := DefaultConfig()
	cfg.Unroll = 2
	u, err := Form(prog, profileOf(t, prog), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if u == a || u.UnrollFactor != 2 {
		t.Errorf("unrolled trace: shared %v, UnrollFactor %d", u == a, u.UnrollFactor)
	}
	// A config that chooses the same trace shares it; a profile that
	// leaves the same chain by another edge is another trace.
	two := DefaultConfig()
	two.MaxBlocks = 2
	if s, _ := Form(prog, profileOf(t, prog), 1, two); s != a {
		t.Error("another config choosing the same trace got its own superblock")
	}
	exits := interp.NewProfile(len(prog.Blocks))
	exits.AddEdges(1, 2, 10)
	exits.AddEdges(2, 3, 10)
	exits.AddEdges(2, 1, 1)
	e, err := Form(prog, exits, 1, two)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(e.Blocks, a.Blocks) || e.FinalTarget != 3 || e == a {
		t.Errorf("trace %v to B%d: shared %v; want %v to B3, not shared", e.Blocks, e.FinalTarget, e == a, a.Blocks)
	}
	// Another program with the same code has a table of its own.
	other := loopProgram()
	c, err := Form(other, profileOf(t, other), 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c == a || !reflect.DeepEqual(c, a) {
		t.Error("an identical program shared the superblock, or formed a different one")
	}
	if n, err := CheckTraces(prog); n != 3 || err != nil {
		t.Errorf("CheckTraces = %d, %v; want 3, nil", n, err)
	}
}

// TestFormHitZeroAllocs: forming a trace already in the table allocates
// nothing — the block chain is chosen into a stack buffer and the
// superblock is the shared one.
func TestFormHitZeroAllocs(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	cfg := DefaultConfig()
	for _, seed := range []int{0, 1} {
		if _, err := Form(prog, prof, seed, cfg); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { Form(prog, prof, seed, cfg) }); n != 0 {
			t.Errorf("seed B%d: a table hit allocates %.0f times, want 0", seed, n)
		}
	}
}

// TestFormConcurrentMisses: goroutines forming the same traces of one
// program at once all get one superblock per trace (run it under -race).
func TestFormConcurrentMisses(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	unrolled := DefaultConfig()
	unrolled.Unroll = 3
	cfgs := []Config{DefaultConfig(), unrolled}
	const goroutines = 8
	got := make([][]*Superblock, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			for seed := range prog.Blocks {
				for _, cfg := range cfgs {
					sb, err := Form(prog, prof, seed, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					got[g] = append(got[g], sb)
				}
			}
		}()
	}
	start.Done()
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if len(got[g]) != len(got[0]) {
			t.Fatalf("goroutine %d formed %d superblocks, goroutine 0 %d", g, len(got[g]), len(got[0]))
		}
		for i := range got[g] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a second superblock for trace %v", g, got[g][i].Blocks)
			}
		}
	}
	if n, err := CheckTraces(prog); n == 0 || err != nil {
		t.Errorf("CheckTraces = %d, %v", n, err)
	}
}

// TestFormPastCapIsPrivate: a seed keeps maxTracesPerSeed traces; every
// further distinct trace comes back private — a new superblock on each
// formation — and with the content the table would have given it.
func TestFormPastCapIsPrivate(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	for i := range maxTracesPerSeed + 3 {
		cfg := DefaultConfig()
		cfg.Unroll = 2 + i
		a, err := Form(prog, prof, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Form(prog, prof, 1, cfg)
		if kept := i < maxTracesPerSeed; (a == b) != kept {
			t.Errorf("trace %d (unroll %d): shared %v, want %v", i, cfg.Unroll, a == b, kept)
		}
		fresh := loopProgram()
		want, _ := Form(fresh, prof, 1, cfg)
		if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
			t.Errorf("trace %d (unroll %d) differs from a fresh program's", i, cfg.Unroll)
		}
		if a.UnrollFactor != cfg.Unroll {
			t.Errorf("trace %d: UnrollFactor %d, want %d", i, a.UnrollFactor, cfg.Unroll)
		}
	}
	if n, err := CheckTraces(prog); n != maxTracesPerSeed || err != nil {
		t.Errorf("CheckTraces = %d, %v; want %d, nil", n, err, maxTracesPerSeed)
	}
}

// TestCheckTracesCatchesAWrite: a write to a shared superblock is what
// CheckTraces exists to report.
func TestCheckTracesCatchesAWrite(t *testing.T) {
	prog := loopProgram()
	sb, err := Form(prog, profileOf(t, prog), 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sb.Insts[0].Inst.Imm++
	if _, err := CheckTraces(prog); err == nil {
		t.Error("CheckTraces missed a written instruction")
	}
	sb.Insts[0].Inst.Imm--
	op := sb.Insts[0].Inst.Op
	sb.Insts[0].Inst.Op = guest.Nop
	if _, err := CheckTraces(prog); err == nil {
		t.Error("CheckTraces missed a written opcode")
	}
	sb.Insts[0].Inst.Op = op
	key := sb.key
	sb.key = key[:len(key)-1]
	if _, err := CheckTraces(prog); err == nil {
		t.Error("CheckTraces missed a written key")
	}
	sb.key = key
	if _, err := CheckTraces(prog); err != nil {
		t.Errorf("the restored trace fails CheckTraces: %v", err)
	}
}

// TestKeyCoversEveryField changes each field of a superblock in turn —
// every header field, one block, and every field of one instruction —
// and requires its encoding to change, so a field added to Superblock,
// Inst or guest.Inst cannot fall out of Key. Equal content, formed by
// another program, must encode equally.
func TestKeyCoversEveryField(t *testing.T) {
	prog := loopProgram()
	sb, err := Form(prog, profileOf(t, prog), 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	other := loopProgram()
	if twin, _ := Form(other, profileOf(t, other), 1, DefaultConfig()); twin == sb || twin.Key() != sb.Key() {
		t.Fatal("equal superblocks of two programs have different keys")
	}
	if sb.Key() != sb.encode() || sb.Key() == "" {
		t.Fatal("Key is not the superblock's encoding")
	}
	c := *sb
	c.Blocks = slices.Clone(sb.Blocks)
	c.Insts = slices.Clone(sb.Insts)
	var perturb func(v reflect.Value, path string)
	perturb = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					perturb(v.Field(i), path+"."+f.Name)
				}
			}
			return
		case reflect.Slice:
			perturb(v.Index(0), path+"[0]")
			v.SetLen(v.Len() - 1)
			if c.encode() == sb.Key() {
				t.Errorf("%s: dropping an element does not change the key", path)
			}
			v.SetLen(v.Len() + 1)
			return
		}
		orig := reflect.New(v.Type()).Elem()
		orig.Set(v)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: no perturbation for kind %v", path, v.Kind())
		}
		if c.encode() == sb.Key() {
			t.Errorf("%s does not reach the key", path)
		}
		v.Set(orig)
	}
	perturb(reflect.ValueOf(&c).Elem(), "Superblock")
	if c.encode() != sb.Key() {
		t.Error("perturbations not restored")
	}
}
