//go:build !fixdebug

// Default build of the audit hook; pair_on.go is its fixdebug twin.
package adapt

func auditEntry(n int) int { return n }
