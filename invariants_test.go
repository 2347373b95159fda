package htmcmp

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/lint"
	"htmcmp/internal/trace"
)

// TestInvariants checks the contracts that make the tables comparable as
// numbers, on the real tree: internal/lint's deterministic core, over the
// default build and the build-tagged files alike (a tagged file that does
// not type-check fails here too), and the cache-key rules below.
func TestInvariants(t *testing.T) {
	findings, err := lint.Check(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	for _, c := range cacheKeyStructs {
		for _, msg := range cacheKeyFindings(c) {
			t.Error(msg)
		}
	}
}

// A cacheKeyStruct is a type whose JSON encoding feeds the sweep's
// content-addressed cache keys, directly or via sweep.Cell.
type cacheKeyStruct struct {
	typ reflect.Type
	// frozen lists the serialized fields without omitempty that predate
	// the omitempty rule: their zero values are baked into existing keys.
	frozen string
	// keyed maps each handle field that is serialized on purpose to why.
	keyed map[string]string
}

var cacheKeyStructs = []cacheKeyStruct{
	{
		typ:    reflect.TypeOf(harness.RunSpec{}),
		frozen: "Platform,Benchmark,Threads,Scale,Variant,Seed,Mode,CostScale,Repeats,UseHLE,UseSTM,DisablePrefetch,DisableSMTSharing,ResponderWins,ChunkStep1,TMCAMEntries,SpaceSize",
		keyed: map[string]string{
			"Policy": "policy shapes results, so it is part of cache identity; nil is baked into existing keys",
		},
	},
	{typ: reflect.TypeOf(trace.Options{}), frozen: "Scale,Seed"},
	// Retries and Seed are ignored by the scheduler; the benchmark program
	// under bench/ still sets them.
	{typ: reflect.TypeOf(sweep.Config{}), frozen: "Jobs,Resume,Timeout,TraceDir,Retries,Seed"},
	{typ: reflect.TypeOf(features.CLQPoint{})},
	{typ: reflect.TypeOf(features.TLSPoint{})},
}

// cacheKeyFindings checks one cache-key struct field by field, so that a
// new field never changes an existing key and a runtime handle never
// enters one:
//
//   - a pointer, func, chan, interface or map field must carry json:"-",
//     unless keyed names it;
//   - every serialized field must have the omitempty option, unless it is
//     frozen;
//   - every frozen name must be a serialized field, and every keyed name a
//     serialized handle field, so the lists cannot rot.
func cacheKeyFindings(c cacheKeyStruct) []string {
	var out []string
	name := c.typ.Name()
	frozenNames := strings.Split(c.frozen, ",")
	frozen := map[string]bool{}
	for _, f := range frozenNames {
		frozen[f] = true
	}
	serialized := map[string]bool{}
	keyedUsed := map[string]bool{}
	for i := 0; i < c.typ.NumField(); i++ {
		f := c.typ.Field(i)
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		serialized[f.Name] = true
		switch k := f.Type.Kind(); k {
		case reflect.Pointer, reflect.Func, reflect.Chan, reflect.Interface, reflect.Map:
			if _, ok := c.keyed[f.Name]; ok {
				keyedUsed[f.Name] = true
				continue
			}
			word := k.String()
			if k == reflect.Pointer {
				word = "pointer"
			}
			out = append(out, fmt.Sprintf("%s.%s is a %s field without json:\"-\": runtime-only "+
				"attachments must not perturb sweep cache identity", name, f.Name, word))
			continue
		}
		_, opts, _ := strings.Cut(tag, ",")
		if !frozen[f.Name] && !strings.Contains(","+opts+",", ",omitempty,") {
			out = append(out, fmt.Sprintf("%s.%s is serialized without omitempty: a newly added key "+
				"field must omit its zero value so existing sweep cache keys stay stable", name, f.Name))
		}
	}
	for _, f := range frozenNames {
		if f != "" && !serialized[f] {
			out = append(out, fmt.Sprintf("%s freezes unknown or unserialized field %q", name, f))
		}
	}
	var keyed []string
	for f := range c.keyed {
		keyed = append(keyed, f)
	}
	sort.Strings(keyed)
	for _, f := range keyed {
		if !keyedUsed[f] {
			out = append(out, fmt.Sprintf("%s keys %q, which is not a serialized handle field", name, f))
		}
	}
	return out
}

// TestCachekey feeds the cache-key checker structs that break each rule,
// plus a keyed handle and a compliant struct that must pass.
func TestCachekey(t *testing.T) {
	type handle struct{}
	type spec struct {
		Threads  int     `json:"threads"`
		Seed     uint64  `json:"seed"`
		Variant  string  `json:"variant,omitempty"`
		Repeats  int     `json:"repeats"`
		Tracer   *handle // a runtime attachment left in the key
		Progress func()  `json:"-"`
	}
	type keyedSpec struct {
		Threads int
		Policy  *handle
	}
	type point struct {
		Threads int    `json:"threads,omitempty"`
		Seed    uint64 `json:"seed,omitempty"`
		Exec    func() `json:"-"`
	}
	for _, tc := range []struct {
		c    cacheKeyStruct
		want []string
	}{
		{
			c: cacheKeyStruct{typ: reflect.TypeOf(spec{}), frozen: "Threads,Seed,Ghost,Progress"},
			want: []string{
				`spec.Repeats is serialized without omitempty`,
				`spec.Tracer is a pointer field without json:"-"`,
				`spec freezes unknown or unserialized field "Ghost"`,
				`spec freezes unknown or unserialized field "Progress"`,
			},
		},
		{c: cacheKeyStruct{typ: reflect.TypeOf(keyedSpec{}), frozen: "Threads", keyed: map[string]string{"Policy": "shapes results"}}},
		{
			c: cacheKeyStruct{typ: reflect.TypeOf(keyedSpec{}), keyed: map[string]string{
				"Policy": "shapes results", "Gone": "stale", "Threads": "not a handle",
			}},
			want: []string{
				`keyedSpec.Threads is serialized without omitempty`,
				`keyedSpec keys "Gone", which is not a serialized handle field`,
				`keyedSpec keys "Threads", which is not a serialized handle field`,
			},
		},
		{c: cacheKeyStruct{typ: reflect.TypeOf(point{})}},
	} {
		got := cacheKeyFindings(tc.c)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %d findings, want %d:\n%s", tc.c.typ.Name(), len(got), len(tc.want), strings.Join(got, "\n"))
			continue
		}
		for i, w := range tc.want {
			if !strings.HasPrefix(got[i], w) {
				t.Errorf("%s: finding %d = %q, want prefix %q", tc.c.typ.Name(), i, got[i], w)
			}
		}
	}
}
