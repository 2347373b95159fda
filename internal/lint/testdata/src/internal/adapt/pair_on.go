//go:build fixdebug

// Tagged twin: builds only with -tags fixdebug, so only the tagged view
// of the package sees its wall-clock read.
package adapt

import "time"

func auditEntry(n int) int {
	return n + int(time.Now().Unix()&1) // want "time.Now in deterministic core"
}
