// Package host is outside the deterministic core: wall-clock reads are
// unrestricted here.
package host

import "time"

func stamp() int64 { return time.Now().UnixNano() }
