package sched

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// keyBase is the mix every key-completeness case mutates: a ferret
// foreground below its thread cap beside a looping canneal, each in
// its own way range, on the default platform.
func keyBase() MixSpec {
	cfg := machine.Default()
	return MixSpec{Jobs: []MixJob{
		{App: workload.MustByName("ferret"), Threads: 2, Slots: cfg.SlotsForCores(0, 1),
			Seed: "fg", WayFirst: 0, WayLim: 6},
		{App: workload.MustByName("canneal"), Threads: 2, Slots: cfg.SlotsForCores(2, 3),
			Background: true, Seed: "bg", WayFirst: 6, WayLim: 12},
	}}
}

// smallLLC is the 2 MB/8-way ablation platform.
var smallLLC = func() machine.Config {
	cfg := machine.Default()
	cfg.Hier.LLC.SizeBytes = 2 << 20
	cfg.Hier.LLC.Assoc = 8
	return cfg
}()

// keyMutations changes each MixSpec and MixJob field to a value that
// changes the simulation (Threads stays below ferret's cap of 8, since
// the key holds the capped count).
var keyMutations = map[string]func(*MixSpec){
	"MixSpec.Jobs":     func(s *MixSpec) { s.Jobs = s.Jobs[:1] },
	"MixSpec.Machine":  func(s *MixSpec) { s.Machine = &smallLLC },
	"MixSpec.Prefetch": func(s *MixSpec) { pf := prefetch.AllOff(); s.Prefetch = &pf },
	"MixSpec.PolicyKey": func(s *MixSpec) {
		s.Setup, s.PolicyKey = func(*machine.Machine, []*machine.Job) {}, "dynamic"
	},
	"MixSpec.ProbeKey": func(s *MixSpec) {
		s.Setup, s.ProbeKey = func(*machine.Machine, []*machine.Job) {}, "umon"
	},
	"MixJob.App":        func(s *MixSpec) { s.Jobs[0].App = workload.MustByName("dedup") },
	"MixJob.Threads":    func(s *MixSpec) { s.Jobs[0].Threads = 3 },
	"MixJob.Slots":      func(s *MixSpec) { s.Jobs[0].Slots = []int{0, 2, 1, 3} },
	"MixJob.Background": func(s *MixSpec) { s.Jobs[1].Background = false },
	"MixJob.Seed":       func(s *MixSpec) { s.Jobs[0].Seed = "fg2" },
	"MixJob.WayFirst":   func(s *MixSpec) { s.Jobs[0].WayFirst = 1 },
	"MixJob.WayLim":     func(s *MixSpec) { s.Jobs[0].WayLim = 5 },
}

// keyExempt names the fields that cannot change a result, and why.
var keyExempt = map[string]string{
	"MixSpec.Setup":        "a Setup hook is unmemoized unless PolicyKey or ProbeKey names it",
	"Options.Parallelism":  "results are identical at any worker count",
	"Options.Tracer":       "wall-clock observation only",
	"Options.WarnLog":      "where store-write warnings go",
	"Options.CacheDir":     "the store holds results under this same key",
	"Options.DisableCache": "bypasses the memo, so nothing is keyed",
}

// keyTypes are the structs whose every field is mutated or exempted.
var keyTypes = []reflect.Type{reflect.TypeOf(MixSpec{}), reflect.TypeOf(MixJob{}), reflect.TypeOf(Options{})}

// TestMemoKeyCompleteness: every input that can change a simulation
// changes its memo key. Each field of MixSpec, MixJob and Options is
// either mutated, and the key must move, or exempted with a reason.
// Every leaf of machine.Config and prefetch.Config, reached through
// MixSpec.Machine and MixSpec.Prefetch, is mutated in turn. A new
// field, a runner option the key does not see, or a String method that
// hides a configuration field from the key's %+v rendering fails here.
func TestMemoKeyCompleteness(t *testing.T) {
	r := New(Options{Scale: QuickScale})
	base := keyBase().memoKey(r)
	if base == "" {
		t.Fatal("base mix is not memoizable")
	}
	fields := map[string]bool{}
	for _, typ := range keyTypes {
		for i := range typ.NumField() {
			fields[typ.Name()+"."+typ.Field(i).Name] = true
		}
	}
	for name := range keyMutations {
		if !fields[name] {
			t.Errorf("mutation for %s, which is not a field", name)
		}
	}
	for name := range keyExempt {
		if !fields[name] {
			t.Errorf("exemption for %s, which is not a field", name)
		}
	}

	for _, typ := range keyTypes[:2] {
		for i := range typ.NumField() {
			name := typ.Name() + "." + typ.Field(i).Name
			if _, exempt := keyExempt[name]; exempt {
				continue
			}
			mut, ok := keyMutations[name]
			if !ok {
				t.Errorf("%s: no mutation and no exemption", name)
				continue
			}
			s := keyBase()
			mut(&s)
			if s.memoKey(r) == base {
				t.Errorf("%s changes the simulation but not the memo key", name)
			}
		}
	}

	// A Setup hook nothing names is never memoized.
	s := keyBase()
	s.Setup = func(*machine.Machine, []*machine.Job) {}
	if k := s.memoKey(r); k != "" {
		t.Errorf("a mix with an unnamed Setup hook is memoized as %q", k)
	}

	// Naming the default platform keys as leaving it nil does, so a
	// hand-built spec shares the entry.
	def := machine.Default()
	s = keyBase()
	s.Machine = &def
	if s.memoKey(r) != base {
		t.Error("Machine naming the default platform keys differently from nil")
	}

	// Leaves are changed from the small-LLC platform, so every key
	// renders its configuration rather than the default's "def".
	n := eachLeaf(t, smallLLC, func(cfg machine.Config) string {
		s := keyBase()
		s.Machine = &cfg
		return s.memoKey(r)
	})
	n += eachLeaf(t, prefetch.AllOn(), func(pf prefetch.Config) string {
		s := keyBase()
		s.Prefetch = &pf
		return s.memoKey(r)
	})
	t.Logf("%d configuration leaves mutated", n)

	// The key is rendered against the runner, so every option that
	// reaches a simulation must reach the key.
	typ := reflect.TypeOf(Options{})
	for i := range typ.NumField() {
		name := "Options." + typ.Field(i).Name
		if _, exempt := keyExempt[name]; exempt {
			continue
		}
		opt := Options{Scale: QuickScale}
		if f := reflect.ValueOf(&opt).Elem().Field(i); !mutate(f) {
			t.Errorf("%s: cannot mutate a %s; exempt it or give it a mutation", name, f.Type())
			continue
		}
		if keyBase().memoKey(New(opt)) == base {
			t.Errorf("%s changes the simulation but not the memo key", name)
		}
	}
}

// eachLeaf changes each leaf field of base in turn and requires key to
// differ from key(base). Leaves must be plain values: the key renders a
// configuration with %+v, which is deterministic only for those. It
// returns the number of leaves.
func eachLeaf[T any](t *testing.T, base T, key func(T) string) int {
	t.Helper()
	want := key(base)
	n := 0
	var walk func(typ reflect.Type, idx []int, path string)
	walk = func(typ reflect.Type, idx []int, path string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			at, name := append(slices.Clone(idx), i), path+"."+f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, at, name)
				continue
			}
			n++
			v := base
			leaf := reflect.ValueOf(&v).Elem().FieldByIndex(at)
			if !leaf.CanSet() || !mutate(leaf) {
				t.Errorf("%s: a %s leaf the test cannot change; the key needs exported plain values", name, f.Type)
				continue
			}
			if key(v) == want {
				t.Errorf("%s changes the simulation but not the memo key", name)
			}
		}
	}
	typ := reflect.TypeOf(base)
	walk(typ, nil, typ.String())
	return n
}

// variants are non-default values for the configuration types a
// pointer field may hold.
var variants = map[reflect.Type]reflect.Value{
	reflect.TypeOf(machine.Config{}):  reflect.ValueOf(smallLLC),
	reflect.TypeOf(prefetch.Config{}): reflect.ValueOf(prefetch.AllOff()),
}

// mutate sets v to a different value of its type, reporting false for
// a kind it cannot change.
func mutate(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		variant, ok := variants[v.Type().Elem()]
		if !ok {
			return false
		}
		p := reflect.New(v.Type().Elem())
		p.Elem().Set(variant)
		v.Set(p)
	default:
		return false
	}
	return true
}
