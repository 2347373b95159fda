// Package features declares the two point structs of the required list:
// one without the cachekey marker, one marked and born compliant.
package features

// CLQPoint is the identity of a CLQRun sweep cell but is unmarked.
type CLQPoint struct { // want cachekey:"CLQPoint feeds sweep cache keys and must carry a //htmlint:cachekey marker"
	Threads int    `json:"threads,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
}

// TLSPoint needs no frozen list: every serialized field is omitempty.
//
//htmlint:cachekey
type TLSPoint struct {
	Threads       int    `json:"threads,omitempty"`
	SuspendResume bool   `json:"suspend_resume,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}
