package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// Flight recorder: the telemetry subsystem's black box. The sampler's
// per-tick rates are watched for the anomaly signatures that per-run
// aggregates average away — abort storms, stalled sweep cells, STM-demotion
// cascades — and on trigger (or SIGQUIT) the rolling state is captured while
// it still shows the anomaly: every retained event-log segment as headered
// JSONL, the registry as Prometheus text, the full series history, and
// optionally pprof CPU/heap profiles, all in one timestamped directory.

// FlightConfig configures the recorder. A zero threshold disables that
// trigger; Dir is required.
type FlightConfig struct {
	Dir          string        // parent for dump directories
	AbortRate    float64       // aborts/sec that counts as a storm
	StallTimeout time.Duration // a cell running longer than this is stalled
	DemotionRate float64       // STM mode-switches/sec that counts as a cascade
	Profile      bool          // also capture pprof CPU + heap
	CPUDuration  time.Duration // CPU profile length (default 500ms)
	Cooldown     time.Duration // min spacing between dumps (default 30s)
}

// FlightInfo describes one completed dump.
type FlightInfo struct {
	Time   string `json:"time"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
	Dir    string `json:"dir"`
}

// FlightRecorder watches a Telemetry bundle and dumps state on anomaly.
type FlightRecorder struct {
	cfg FlightConfig
	tel *Telemetry

	triggers *Counter

	mu      sync.Mutex
	last    time.Time
	dumping bool
	dumps   []FlightInfo
	wg      sync.WaitGroup
}

func newFlightRecorder(cfg FlightConfig, tel *Telemetry) *FlightRecorder {
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 500 * time.Millisecond
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	return &FlightRecorder{
		cfg:      cfg,
		tel:      tel,
		triggers: tel.Registry.Counter("flight_triggers_total"),
	}
}

// check is the sampler hook: inspect this tick's rates and the worker table.
func (f *FlightRecorder) check(now time.Time, rates map[string]float64) {
	if f.cfg.AbortRate > 0 {
		if r := rates["htm_tx_aborts_total"]; r > f.cfg.AbortRate {
			f.Trigger("abort-storm", fmt.Sprintf("abort rate %.1f/s > %.1f/s", r, f.cfg.AbortRate))
			return
		}
	}
	if f.cfg.DemotionRate > 0 {
		if r := rates[`tm_mode_switches_total{to="stm"}`]; r > f.cfg.DemotionRate {
			f.Trigger("stm-demotion-cascade", fmt.Sprintf("STM demotion rate %.1f/s > %.1f/s", r, f.cfg.DemotionRate))
			return
		}
	}
	if w := f.tel.WorkerTable(); f.cfg.StallTimeout > 0 && w != nil {
		if stalled := w.Stalled(now, f.cfg.StallTimeout); len(stalled) > 0 {
			f.Trigger("stalled-cell", fmt.Sprintf("worker %d on %q for > %s",
				stalled[0].ID, stalled[0].Cell, f.cfg.StallTimeout))
		}
	}
}

// Trigger requests a dump for reason. Dumps run in the background (Wait
// blocks until they land); triggers inside the cooldown window or while a
// dump is in progress are dropped.
func (f *FlightRecorder) Trigger(reason, detail string) {
	now := time.Now()
	f.mu.Lock()
	if f.dumping || (!f.last.IsZero() && now.Sub(f.last) < f.cfg.Cooldown) {
		f.mu.Unlock()
		return
	}
	f.dumping = true
	f.last = now
	f.mu.Unlock()

	f.triggers.Inc()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		info, err := f.dump(now, reason, detail)
		f.mu.Lock()
		f.dumping = false
		if err == nil {
			f.dumps = append(f.dumps, info)
		}
		f.mu.Unlock()
		if err != nil {
			fmt.Fprintf(os.Stderr, "flight recorder: dump failed: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "flight recorder: %s → %s\n", reason, info.Dir)
		}
	}()
}

// Wait blocks until all in-flight dumps have finished.
func (f *FlightRecorder) Wait() { f.wg.Wait() }

// Dumps returns the completed dumps, oldest first.
func (f *FlightRecorder) Dumps() []FlightInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FlightInfo(nil), f.dumps...)
}

func (f *FlightRecorder) dump(now time.Time, reason, detail string) (FlightInfo, error) {
	stamp := now.UTC().Format("20060102T150405.000")
	dir := filepath.Join(f.cfg.Dir, "flight-"+stamp+"-"+sanitizeLabel(reason))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return FlightInfo{}, err
	}
	info := FlightInfo{
		Time:   now.UTC().Format(time.RFC3339Nano),
		Reason: reason,
		Detail: detail,
		Dir:    dir,
	}

	if err := writeJSONFile(filepath.Join(dir, "info.json"), info); err != nil {
		return info, err
	}
	if _, err := f.tel.Log.DumpDir(dir); err != nil {
		return info, err
	}
	if err := writeFileWith(filepath.Join(dir, "metrics.prom"), f.tel.Registry.WritePromText); err != nil {
		return info, err
	}
	if err := writeJSONFile(filepath.Join(dir, "series.json"), f.tel.Sampler.Snapshot(0)); err != nil {
		return info, err
	}
	if err := writeJSONFile(filepath.Join(dir, "state.json"), f.tel.State(0)); err != nil {
		return info, err
	}
	if f.cfg.Profile {
		if err := captureProfiles(dir, f.cfg.CPUDuration); err != nil {
			return info, err
		}
	}
	return info, nil
}

func captureProfiles(dir string, cpuDur time.Duration) error {
	cf, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	// StartCPUProfile fails if another profile is running (another dump or
	// the host process); skip the CPU capture rather than abort the dump.
	if err := pprof.StartCPUProfile(cf); err == nil {
		time.Sleep(cpuDur)
		pprof.StopCPUProfile()
	}
	if err := cf.Close(); err != nil {
		return err
	}
	hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(hf); err != nil {
		hf.Close()
		return err
	}
	return hf.Close()
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
