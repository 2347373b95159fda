//go:build fixdebug

// Tagged twin calling a helper that no file declares: only the type
// check of the tagged view can catch it.
package broken

func hook() int { return undeclaredHelper() }
