//go:build !fixdebug

// Default twin of pair_on.go: same package-level symbols, with push
// demoted to a value-receiver no-op (receiver pointerness is normalised
// away by the check).
package adapt

const debugChecks = false

func auditEntry(n int) int { return n }

type auditState struct{}

func (s auditState) push() {}

func auditLeak() {} // want tagpair:"auditLeak is declared under build tag \"!fixdebug\""
