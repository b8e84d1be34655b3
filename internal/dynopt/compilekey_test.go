package dynopt

import (
	"reflect"
	"testing"

	"smarq/internal/alias"
	"smarq/internal/guest"
	"smarq/internal/sched"
	"smarq/internal/workload"
)

// TestInputEqualCoversEveryField checks compileKey's shape, so a field
// added to the pipeline's inputs cannot fall out of the key whose ==
// decides input equality for the reuse check and the fleet cache:
//   - the key holds no pointer, map, slice, interface, func or channel at
//     any depth, so == on keys compares content, never identity;
//   - every sched.Config field but PinnedOps is a key field of the same
//     name and type, and schedConfig passes it on;
//   - compileInput holds only its key and the parts the key encodes: the
//     superblock (its Key) and the pin and blacklist sets (encodeSets).
//
// opt.Config, vliw.Config and core.Options are held whole, so their
// fields are in the key by construction.
func TestInputEqualCoversEveryField(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %v: == on keys would compare identity, not content", path, typ.Kind())
		}
	}
	walk(reflect.TypeFor[compileKey](), "compileKey")

	// Give every sched.Config field of the key a distinct non-zero value,
	// so a field schedConfig drops cannot pass by being zero on both sides.
	in := sampleCompileInput(t)
	in.pins = map[int]bool{9: true}
	key, fields := reflect.ValueOf(&in.key).Elem(), reflect.TypeFor[sched.Config]()
	n := int64(0)
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				set(v.Field(i))
			}
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			n++
			v.SetInt(n)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			n++
			v.SetUint(uint64(n))
		default:
			t.Fatalf("no non-zero value for kind %v", v.Kind())
		}
	}
	for i := 0; i < fields.NumField(); i++ {
		f := fields.Field(i)
		if f.Name == "PinnedOps" {
			continue
		}
		kf, ok := key.Type().FieldByName(f.Name)
		if !ok || kf.Type != f.Type {
			t.Errorf("sched.Config.%s is not a compileKey field of type %v", f.Name, f.Type)
			continue
		}
		set(key.FieldByIndex(kf.Index))
	}
	sc := reflect.ValueOf(in.schedConfig())
	for i := 0; i < fields.NumField(); i++ {
		f := fields.Field(i)
		want := reflect.ValueOf(in.pins)
		if f.Name != "PinnedOps" {
			kf, ok := key.Type().FieldByName(f.Name)
			if !ok {
				continue
			}
			want = key.FieldByIndex(kf.Index)
		}
		if !reflect.DeepEqual(sc.Field(i).Interface(), want.Interface()) {
			t.Errorf("schedConfig does not pass on %s", f.Name)
		}
	}

	encoded := map[string]bool{"entry": true, "sb": true, "blacklist": true, "pins": true, "key": true}
	typ := reflect.TypeFor[compileInput]()
	for i := 0; i < typ.NumField(); i++ {
		if !encoded[typ.Field(i).Name] {
			t.Errorf("compileInput.%s is neither the key nor a part the key encodes", typ.Field(i).Name)
		}
	}
	if in.key.trace != in.sb.Key() || in.entry != in.sb.Entry {
		t.Error("the key's trace is not the input's superblock")
	}
	if got := encodeSets(nil, nil); got != "" {
		t.Errorf("empty sets encode as %q, want \"\"", got)
	}
}

// TestEncodeSetsDistinct: every pair of distinct pin and blacklist sets
// drawn from a small universe encodes distinctly, equal sets encode
// equally whatever order they were built in, and only two empty sets
// encode as "". The op IDs share digits (1, 2, 11, 12), so an encoding
// without delimiters would collide.
func TestEncodeSetsDistinct(t *testing.T) {
	ids := []int{1, 2, 11, 12}
	pairs := []alias.Pair{alias.MakePair(1, 2), alias.MakePair(1, 12), alias.MakePair(11, 2), alias.MakePair(12, 11)}
	seen := map[string][2]int{}
	for pm := 0; pm < 1<<len(ids); pm++ {
		for bm := 0; bm < 1<<len(pairs); bm++ {
			var pins, rev map[int]bool
			var bl, revBL alias.Blacklist
			for i, id := range ids {
				if pm&(1<<i) != 0 {
					pins = with(pins, id)
				}
				if j := len(ids) - 1 - i; pm&(1<<j) != 0 {
					rev = with(rev, ids[j])
				}
			}
			for i, pr := range pairs {
				if bm&(1<<i) != 0 {
					bl = with(bl, pr)
				}
				if j := len(pairs) - 1 - i; bm&(1<<j) != 0 {
					revBL = with(revBL, pairs[j])
				}
			}
			enc := encodeSets(pins, bl)
			if got := encodeSets(rev, revBL); got != enc {
				t.Fatalf("pins %v, blacklist %v: %q built in reverse, %q in order", pins, bl, got, enc)
			}
			if (enc == "") != (pm == 0 && bm == 0) {
				t.Fatalf("pins %v, blacklist %v encode as %q", pins, bl, enc)
			}
			if prev, ok := seen[enc]; ok {
				t.Fatalf("sets %v and %v both encode as %q", prev, [2]int{pm, bm}, enc)
			}
			seen[enc] = [2]int{pm, bm}
		}
	}
	pins, bl := map[int]bool{}, alias.Blacklist{}
	for i, id := range ids {
		pins[id], bl[pairs[i]] = true, true
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = encodeSets(pins, bl) }); allocs != 1 {
		t.Errorf("encoding %d pins and %d pairs allocates %v times, want 1 (the string)", len(pins), len(bl), allocs)
	}
}

// sampleCompileInput runs a short SMARQ system and returns the compile
// input of one region it formed.
func sampleCompileInput(t *testing.T) compileInput {
	t.Helper()
	sys := New(aliasingProgram(800, 7), &guest.State{}, guest.NewMemory(1<<16), ConfigSMARQ(64))
	if _, err := sys.Run(40_000); err != nil {
		t.Fatal(err)
	}
	for e := range sys.disp {
		if rr := sys.disp[e].rec; rr == nil || rr.sb == nil {
			continue
		}
		in, err := sys.newCompileInput(e)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	t.Fatal("run formed no superblocks")
	return compileInput{}
}

// TestMemoKeyFoldsMachine requires every field of the System's machine
// model to reach the key newCompileInput builds, so neither a field added
// to vliw.Config nor a builder that stops passing the machine on can make
// two machines share compiled code.
func TestMemoKeyFoldsMachine(t *testing.T) {
	sys, e := installedSystem(t, 0)
	base, err := sys.newCompileInput(e)
	if err != nil {
		t.Fatal(err)
	}
	m := reflect.ValueOf(&sys.cfg.Machine).Elem()
	for i := 0; i < m.NumField(); i++ {
		f := m.Field(i)
		f.SetInt(f.Int() + 1)
		in, err := sys.newCompileInput(e)
		if err != nil {
			t.Fatal(err)
		}
		if in.key == base.key {
			t.Errorf("vliw.Config.%s does not reach the compile key", m.Type().Field(i).Name)
		}
		f.SetInt(f.Int() - 1)
	}
}

// TestMemoKeyZeroAllocs pins building a region's compile key, and
// comparing it with an earlier one, at zero heap allocations: the key is
// built on the dispatch path at every compile request, so the superblock
// and set encodings must be written when they change, never per request.
// The blacklist and pin sets are deliberately nonempty.
func TestMemoKeyZeroAllocs(t *testing.T) {
	sys, e := installedSystem(t, 0)
	rr := sys.disp[e].rec
	rr.harden(alias.MakePair(3, 1), 9)
	rr.harden(alias.MakePair(2, 5), 2)
	rr.harden(alias.MakePair(0, 4), 5)
	want, err := sys.newCompileInput(e)
	if err != nil || want.key.sets == "" {
		t.Fatalf("no key with nonempty sets (err %v)", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if got, err := sys.newCompileInput(e); err != nil || got.key != want.key {
			t.Fatalf("compile key unstable (err %v)", err)
		}
	})
	if allocs != 0 {
		t.Errorf("building the compile key allocates %.1f times per call, want 0", allocs)
	}
}

// TestHardeningKeepsEarlierInputs: a hardening replaces the region's sets
// instead of writing to them, so an input taken before it, and the input
// of the output installed before it, keep the sets they were built from
// (and their keys). Hardening the same pairs and pins in another order
// gives an equal key.
func TestHardeningKeepsEarlierInputs(t *testing.T) {
	sys, e := installedSystem(t, 0)
	rr := sys.disp[e].rec
	rr.harden(alias.MakePair(3, 1), 9)
	sys.recompileRegion(e, true)
	before, err := sys.newCompileInput(e)
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.disp[e].code.out
	if rec.in.key != before.key {
		t.Fatal("the installed output was not compiled from the current input")
	}
	want := before.key

	rr.harden(alias.MakePair(2, 5), 4)
	rr.harden(alias.MakePair(0, 4), -1)
	after, err := sys.newCompileInput(e)
	if err != nil {
		t.Fatal(err)
	}
	if after.key == want {
		t.Fatal("hardening new pairs left the key unchanged")
	}
	for _, got := range []compileInput{before, rec.in} {
		if got.key != want || len(got.blacklist) != 1 || len(got.pins) != 1 {
			t.Errorf("an earlier input saw the hardening: %d pairs, %d pins", len(got.blacklist), len(got.pins))
		}
	}
	if rr.harden(alias.MakePair(2, 5), 4); sys.recordOf(e).sets != after.key.sets {
		t.Error("hardening a known pair and pin changed the sets")
	}

	// The same three hardenings in reverse order, on a fresh record.
	other := newRegionRecord()
	other.harden(alias.MakePair(0, 4), -1)
	other.harden(alias.MakePair(2, 5), 4)
	other.harden(alias.MakePair(3, 1), 9)
	if other.sets != rr.sets {
		t.Error("the same sets hardened in another order encode differently")
	}
}

// TestSharedCacheKeysOnMachine runs tenants of different configurations,
// one after another, over one shared compile cache: machine models, store
// reordering, alias register counts and the elimination ablation. Each
// must land on exactly the cycles, registers and memory of its solo run
// with a private cache: a tenant never installs code compiled for another
// configuration. The third tenant repeats the first one's configuration,
// so the cache must still serve it hits.
func TestSharedCacheKeysOnMachine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bench string // one whose cycles the setting moves
		set   func(cfg *Config, b bool)
	}{
		{"MemLat", "swim", func(cfg *Config, b bool) {
			if b {
				cfg.Machine.MemLat = 9
			}
		}},
		{"StoreReorder", "mesa", func(cfg *Config, b bool) { cfg.StoreReorder = !b }},
		{"NumAliasRegs", "wupwise", func(cfg *Config, b bool) {
			if b {
				cfg.NumAliasRegs = 16
			}
		}},
		{"Ablation.Elim", "wupwise", func(cfg *Config, b bool) { cfg.Ablation.Elim = b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bm, ok := workload.ByName(tc.bench)
			if !ok {
				t.Fatalf("no benchmark %s", tc.bench)
			}
			run := func(b bool, cache *CodeCache) *System {
				cfg := ConfigSMARQ(64)
				tc.set(&cfg, b)
				cfg.Compile.Workers = 1
				cfg.Compile.SharedCache = cache
				sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
				if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
					t.Fatalf("%s %v: halted=%v err=%v", tc.name, b, halted, err)
				}
				return sys
			}
			solo := map[bool]*System{}
			for _, b := range []bool{true, false} {
				solo[b] = run(b, NewCodeCache())
			}
			if solo[true].Stats.TotalCycles == solo[false].Stats.TotalCycles {
				t.Fatal("the two configurations run in the same cycles; the test cannot tell them apart")
			}
			shared := NewCodeCache()
			for _, b := range []bool{false, true, false} {
				got, want := run(b, shared), solo[b]
				if got.Stats.TotalCycles != want.Stats.TotalCycles {
					t.Errorf("%s %v on the shared cache: %d cycles, solo %d", tc.name, b, got.Stats.TotalCycles, want.Stats.TotalCycles)
				}
				if *got.State() != *want.State() || got.Mem().Digest() != want.Mem().Digest() {
					t.Errorf("%s %v on the shared cache: final state differs from the solo run", tc.name, b)
				}
			}
			if st := shared.Stats(); st.Hits == 0 {
				t.Errorf("the repeated tenant drew no cache hits: %+v", st)
			}
		})
	}
}
