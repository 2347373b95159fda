package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"htmcmp/internal/htm"
	"htmcmp/internal/obs"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
)

func TestParsePlatform(t *testing.T) {
	cases := []struct {
		in   string
		want platform.Kind
		ok   bool
	}{
		{"bgq", platform.BlueGeneQ, true},
		{"bg", platform.BlueGeneQ, true},
		{"zec12", platform.ZEC12, true},
		{"z12", platform.ZEC12, true},
		{"intel", platform.IntelCore, true},
		{"ic", platform.IntelCore, true},
		{"power8", platform.POWER8, true},
		{"p8", platform.POWER8, true},
		{"sparc", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := platform.ParseKind(c.in)
		if (err == nil) != c.ok {
			t.Errorf("platform.ParseKind(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("platform.ParseKind(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseScale(t *testing.T) {
	cases := []struct {
		in   string
		want stamp.Scale
		ok   bool
	}{
		{"test", stamp.ScaleTest, true},
		{"sim", stamp.ScaleSim, true},
		{"full", stamp.ScaleFull, true},
		{"huge", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := stamp.ParseScale(c.in)
		if (err == nil) != c.ok {
			t.Errorf("stamp.ParseScale(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("stamp.ParseScale(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRunChecks(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	if err := obs.WriteJSONLFile(good, []obs.Event{
		{Kind: obs.KindBegin, Thread: 0, VClock: 1, Line: obs.NoLine, Aborter: obs.NoThread},
		{Kind: obs.KindCommit, Thread: 0, VClock: 5, Dur: 4, Line: obs.NoLine, Aborter: obs.NoThread},
	}); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"kind":"warp"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	goodTrace := filepath.Join(dir, "good.trace.json")
	if err := os.WriteFile(goodTrace, []byte(`{"traceEvents":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badTrace := filepath.Join(dir, "bad.trace.json")
	if err := os.WriteFile(badTrace, []byte(`{"traceEvents":`), 0o644); err != nil {
		t.Fatal(err)
	}

	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()

	cases := []struct {
		events, trace string
		want          int
	}{
		{good, "", 0},
		{good, goodTrace, 0},
		{bad, "", 1},
		{"", badTrace, 1},
		{good, badTrace, 1},
		{filepath.Join(dir, "missing.jsonl"), "", 1},
	}
	for _, c := range cases {
		if got := runChecks(c.events, c.trace, null, null); got != c.want {
			t.Errorf("runChecks(%q, %q) = %d, want %d", c.events, c.trace, got, c.want)
		}
	}
}

// TestCheckFlags: -threads outside [1, htm.MaxThreads] and -top below 1 are
// usage errors that name the flag. -threads -2 used to run one thread,
// -threads 300 to panic in the engine, and -top -1 to print 15 lines.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		threads, top int
		want         string
	}{
		{1, 1, ""}, {4, 10, ""}, {htm.MaxThreads, 1, ""},
		{0, 10, "-threads"}, {-2, 10, "-threads"}, {htm.MaxThreads + 1, 10, "-threads"},
		{4, 0, "-top"}, {4, -1, "-top"},
	} {
		err := checkFlags(tc.threads, tc.top)
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("checkFlags(%d, %d) = %v, want an error naming %q", tc.threads, tc.top, err, tc.want)
		}
	}
}

// TestMain doubles as the htmtrace binary: with HTMTRACE_TEST_MAIN set, it
// runs main with its arguments as the flags.
func TestMain(m *testing.M) {
	if os.Getenv("HTMTRACE_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageErrorsExitBeforeSideEffects: a flag value htmtrace cannot use is
// one htmtrace: line on stderr naming the flag and exit status 2 with
// nothing on stdout, before any engine is built. -seed 0 used to run seed
// 42; -jsonl, -perfetto or -top without -events used to print the footprint
// report and write no file. An export file that cannot be created is exit status 1 to the same
// standard, with no file left behind: -jsonl and -perfetto used to simulate
// the whole run and print its report first, and a -perfetto that failed
// after -jsonl opened would have left the -jsonl file.
func TestUsageErrorsExitBeforeSideEffects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-threads", "300", "-events"}, 2},
		{[]string{"-threads", "-2"}, 2},
		{[]string{"-top", "-1", "-events"}, 2},
		{[]string{"-top", "0"}, 2},
		{[]string{"-bench", "nosuch"}, 2},
		{[]string{"-bench", "nosuch", "-events"}, 2},
		{[]string{"-platform", "sparc"}, 2},
		{[]string{"-scale", "huge"}, 2},
		{[]string{"-seed", "0"}, 2},
		{[]string{"-seed", "0", "-events"}, 2},
		{[]string{"-jsonl", "no-such-dir/x.jsonl", "-events", "-scale", "test"}, 1},
		{[]string{"-perfetto", "no-such-dir/x.trace.json", "-jsonl", "x.jsonl", "-events", "-scale", "test"}, 1},
		{[]string{"-jsonl", "x.jsonl", "-perfetto", "no-such-dir/y", "-bench", "ssca2", "-scale", "test"}, 2},
		{[]string{"-perfetto", "x.trace.json", "-scale", "test"}, 2},
		{[]string{"-top", "5", "-scale", "test"}, 2},
		{[]string{"-jsonl", "x.jsonl", "-check-events", "x.jsonl"}, 2},
	} {
		args := tc.args
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "HTMTRACE_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("htmtrace %v: %v, want exit status %d\nstderr: %s", args, err, tc.code, stderr.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "htmtrace: "+args[0]) {
			t.Errorf("htmtrace %v: stderr %q, want one htmtrace: line naming %s", args, msg, args[0])
		}
		if stdout.Len() != 0 {
			t.Errorf("htmtrace %v printed to stdout: %q", args, stdout.String())
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("htmtrace %v left %d entries behind, first %s", args, len(left), left[0].Name())
		}
	}
}
