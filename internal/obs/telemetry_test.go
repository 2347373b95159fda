package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func startTestTelemetry(t *testing.T, cfg TelemetryConfig) *Telemetry {
	t.Helper()
	tel, err := StartTelemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tel.Close() })
	return tel
}

func TestTelemetryHTTPEndpoints(t *testing.T) {
	tel := startTestTelemetry(t, TelemetryConfig{
		HTTPAddr:       "127.0.0.1:0",
		SampleInterval: 10 * time.Millisecond,
		Workers:        2,
	})
	NewEngineMetrics(tel.Registry, 3, 2).Publish(10, 8, 1, []uint64{0, 1, 0}, nil)
	tel.WorkerTable().Begin(0, "cell-a")

	base := "http://" + tel.Addr()

	// /metrics is valid Prometheus text naming the engine counters.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if _, err := ValidatePromText(strings.NewReader(string(body))); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	names, err := PromMetricNames(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"htm_tx_begins_total", "htm_tx_commits_total", "htm_tx_aborts_by_reason_total"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("exposition missing %s: %v", want, names)
		}
	}

	// /api/state decodes and reflects the published values.
	resp, err = http.Get(base + "/api/state")
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Counters["htm_tx_commits_total"] != 8 {
		t.Fatalf("state commits = %d", st.Counters["htm_tx_commits_total"])
	}
	if len(st.Workers) != 2 || st.Workers[0].State != "run" || st.Workers[0].Cell != "cell-a" {
		t.Fatalf("state workers = %+v", st.Workers)
	}

	// / serves the dashboard; other paths 404.
	resp, err = http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"htmcmp live telemetry", "EventSource", "/api/stream"} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	if resp, err = http.Get(base + "/nope"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/nope status = %d", resp.StatusCode)
	}
}

func TestTelemetrySSEStream(t *testing.T) {
	tel := startTestTelemetry(t, TelemetryConfig{
		HTTPAddr:       "127.0.0.1:0",
		SampleInterval: 10 * time.Millisecond,
	})
	tel.Registry.Counter("x_total").Add(3)

	resp, err := http.Get("http://" + tel.Addr() + "/api/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	frames := 0
	for sc.Scan() && frames < 2 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var st State
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
			t.Fatalf("bad SSE frame: %v in %q", err, line)
		}
		if st.Counters["x_total"] != 3 {
			t.Fatalf("frame counters = %v", st.Counters)
		}
		frames++
	}
	if frames < 2 {
		t.Fatalf("got %d SSE frames, want 2", frames)
	}
}

func TestFlightRecorderAbortStorm(t *testing.T) {
	dir := t.TempDir()
	tel := startTestTelemetry(t, TelemetryConfig{
		SampleInterval: time.Hour, // ticks driven by hand below
		Flight: &FlightConfig{
			Dir:       dir,
			AbortRate: 10, // aborts/sec
		},
	})

	// Give the event log something to dump.
	tr := NewTracer(1, 16)
	tr.Ring(0).Record(mkBegin(0, 1))
	tr.Ring(0).Record(mkAbort(0, 9, 5, 1, 0, 7, NoThread))
	tel.Log.Drain("storm-cell", tr)

	// Two manual ticks one second apart with one cell completing between
	// them — engine counters advance in per-cell steps — whose 100 aborts
	// make a 100/s abort rate, well over the 10/s threshold.
	eng := NewEngineMetrics(tel.Registry, 3, 2)
	t0 := time.Now()
	tel.Sampler.Tick(t0)
	eng.Publish(150, 50, 100, []uint64{0, 100, 0}, nil)
	tel.Sampler.Tick(t0.Add(time.Second))
	tel.Flight.Wait()

	dumps := tel.Flight.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "abort-storm" {
		t.Fatalf("dumps = %+v", dumps)
	}
	// The dump holds info.json, metrics.prom, state.json, series.json and a
	// validating rings file.
	for _, name := range []string{"info.json", "metrics.prom", "state.json", "series.json"} {
		if _, err := os.Stat(filepath.Join(dumps[0].Dir, name)); err != nil {
			t.Fatalf("dump missing %s: %v", name, err)
		}
	}
	rings, err := filepath.Glob(filepath.Join(dumps[0].Dir, "rings-*.jsonl"))
	if err != nil || len(rings) != 1 {
		t.Fatalf("rings files = %v (%v)", rings, err)
	}
	if n, err := ValidateFile(rings[0]); err != nil || n != 2 {
		t.Fatalf("rings validate: n=%d err=%v", n, err)
	}
	f, err := os.Open(filepath.Join(dumps[0].Dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ValidatePromText(f); err != nil {
		t.Fatalf("dumped exposition invalid: %v", err)
	}
	if tel.Registry.Counter("flight_triggers_total").Value() != 1 {
		t.Fatal("flight_triggers_total not bumped")
	}

	// Cooldown: an immediate second storm is dropped.
	eng.Publish(150, 50, 100, []uint64{0, 100, 0}, nil)
	tel.Sampler.Tick(t0.Add(2 * time.Second))
	tel.Flight.Wait()
	if got := len(tel.Flight.Dumps()); got != 1 {
		t.Fatalf("dumps after cooldown window = %d, want 1", got)
	}
}

func TestFlightRecorderStalledCell(t *testing.T) {
	dir := t.TempDir()
	tel := startTestTelemetry(t, TelemetryConfig{
		SampleInterval: time.Hour,
		Workers:        2,
		Flight: &FlightConfig{
			Dir:          dir,
			StallTimeout: time.Millisecond,
		},
	})
	tel.WorkerTable().Begin(1, "slow-cell")
	time.Sleep(5 * time.Millisecond)
	tel.Sampler.Tick(time.Now())
	tel.Flight.Wait()
	dumps := tel.Flight.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "stalled-cell" {
		t.Fatalf("dumps = %+v", dumps)
	}
	if !strings.Contains(dumps[0].Detail, "slow-cell") {
		t.Fatalf("detail = %q", dumps[0].Detail)
	}
}

func TestWorkerTableTransitions(t *testing.T) {
	w := NewWorkerTable(2)
	w.Begin(0, "c1")
	w.End(0)
	w.Begin(9, "out-of-range") // ignored
	rows := w.Snapshot()
	if rows[0].State != "idle" || rows[0].Done != 1 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[1].Done != 0 || rows[1].State != "idle" {
		t.Fatalf("row 1 = %+v", rows[1])
	}
	if got := w.Stalled(time.Now(), time.Minute); len(got) != 0 {
		t.Fatalf("Stalled = %+v", got)
	}
}
