package lint_test

import (
	"testing"

	"htmcmp/internal/lint"
	"htmcmp/internal/lint/linttest"
)

func TestCachekey(t *testing.T) {
	linttest.Check(t, fixtureDir,
		[]*lint.Analyzer{lint.CachekeyAnalyzer}, "./internal/harness", "./internal/trace", "./internal/features")
}
