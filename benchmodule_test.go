package htmcmp

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets runs go vet over the nested bench/ module, which
// `go test ./...` at the root does not reach and which only a benchmark-typed
// change may edit. It fails when an internal API bench/ calls has changed
// under it, and when the root go.mod's go line has moved past bench/go.mod's
// (go then wants to rewrite bench/go.mod, which -mod=readonly forbids).
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on another module")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
