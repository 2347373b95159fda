//go:build !fixdebug

// Package broken builds cleanly by default; its fixdebug twin does not.
package broken

func hook() int { return 0 }
