package htmcmp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
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

// syncAllowed lists the non-test files under internal/ and cmd/ that may
// import sync or sync/atomic, each with the goroutines that meet there. An
// engine region runs all its threads on one goroutine (DESIGN.md §3), so
// nothing it touches may lock: the only host concurrency is between the
// sweep's workers.
var syncAllowed = map[string]string{
	"internal/htm/pool.go":            "sweep workers Get and Put pooled line tables and Spaces",
	"internal/htm/adapter.go":         "the Register/BeginWork adapter's member goroutines and its driver (bench/unit.go)",
	"internal/chaos/chaos.go":         "every sweep worker counts its fired faults in one shared Injector",
	"internal/harness/regions.go":     "sweep workers share one region memo and wait on each other's flights",
	"internal/harness/sweep/sweep.go": "sweep workers, each cell's goroutine (abandoned on a timeout) and the cache writer meet in the Scheduler",
	"internal/harness/sweep/queue.go": "sweep workers pop cells from one longest-first queue",
}

// TestSyncImports pins where sync and sync/atomic may be imported: exactly
// the files syncAllowed names, build-tagged files included.
func TestSyncImports(t *testing.T) {
	importing := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() && d.Name() == "testdata" {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
					importing[filepath.ToSlash(path)] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path := range importing {
		if _, ok := syncAllowed[path]; !ok {
			t.Errorf("%s imports sync or sync/atomic but is not in syncAllowed: nothing inside an engine region may lock", path)
		}
	}
	for path := range syncAllowed {
		if !importing[path] {
			t.Errorf("syncAllowed lists %s, which no longer imports sync or sync/atomic: drop it", path)
		}
	}
}

// TestNoChannelsInRegions: the packages an engine region runs through
// declare no channel type, in any non-test file. One goroutine runs all of
// a region's threads, so a channel there is a lock or a queue with no
// second goroutine to meet.
func TestNoChannelsInRegions(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/stamp", "internal/txds", "internal/tm", "internal/adapt", "internal/mem"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if _, ok := n.(*ast.ChanType); ok {
					t.Errorf("%s: channel type inside an engine region's packages", fset.Position(n.Pos()))
				}
				return true
			})
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
