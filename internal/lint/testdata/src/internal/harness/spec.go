// Package harness carries a marked cache-identity struct with one of
// every field violation plus the compliant shapes.
package harness

import "fixmod/internal/obs"

// RunSpec is one cell of a sweep grid; its JSON encoding is the cache
// key. Threads and Seed predate the lint, so their zero values are
// frozen into existing keys. Ghost names no field.
//
//htmlint:cachekey frozen=Threads,Seed,Ghost
type RunSpec struct { // want cachekey:"freezes unknown field \"Ghost\""
	Threads  int         `json:"threads"`
	Seed     uint64      `json:"seed"`
	Variant  string      `json:"variant,omitempty"`
	Repeats  int         `json:"repeats"` // want cachekey:"serialized without omitempty"
	Tracer   *obs.Tracer // want cachekey:"pointer field without json:"
	Progress func()      `json:"-"`
}

// Mode is not a struct, so the marker itself is the finding.
//
//htmlint:cachekey
type Mode int // want cachekey:"marker on non-struct type Mode"
