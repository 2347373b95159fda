//go:build fixdebug

// Tagged twin: builds only with -tags fixdebug. The tagpair check
// still parses this file (it is build-ignored under the default
// configuration) and compares its symbol set against pair_off.go.
package adapt

const debugChecks = true

func auditEntry(n int) int { return n + 1 }

type auditState struct{ depth int }

func (s *auditState) push() { s.depth++ }

func debugOnlyHook() {} // want tagpair:"debugOnlyHook is declared under build tag \"fixdebug\""

//htmlint:allow tagpair -- debug scaffolding has no production twin by design
func scaffold() {}
