package htmcmp

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// examples are the programs under examples/, each run with no arguments.
var examples = []string{"bank", "queue", "quickstart", "stampmini", "stm", "tls"}

// TestExamples builds every example and compares its stdout to a golden:
// testdata/examples/<name>.txt, except quickstart, whose golden is the output
// block README.md prints under `go run ./examples/quickstart`. Every example
// runs in virtual time, so its output is the same on any host. After a
// deliberate change, rewrite a golden with `go run ./examples/<name>
// >testdata/examples/<name>.txt` (or edit README.md) and review the diff.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example programs")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, name := range examples {
		t.Run(name, func(t *testing.T) {
			want := goldenOutput(t, name)
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if got := stdout.String(); got != want {
				t.Errorf("%s stdout differs from its golden\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

func goldenOutput(t *testing.T, name string) string {
	t.Helper()
	if name != "quickstart" {
		golden, err := os.ReadFile(filepath.Join("testdata", "examples", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		return string(golden)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// The output block is the fenced block right after the command's.
	_, rest, ok := strings.Cut(string(readme), "```\ngo run ./examples/quickstart\n```\n")
	if ok {
		_, rest, ok = strings.Cut(rest, "```\n")
	}
	block, _, closed := strings.Cut(rest, "```")
	if !ok || !closed {
		t.Fatal("README.md has no fenced output block after `go run ./examples/quickstart`")
	}
	return block
}
