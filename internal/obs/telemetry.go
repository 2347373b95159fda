package obs

import (
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// Telemetry bundles the live-observability pieces into one handle the CLIs
// wire through the harness and sweep layers: the metrics registry the
// publishers write into, the sampler turning it into time series, the
// rolling event log, the worker table, and optionally an HTTP server and a
// flight recorder. A nil *Telemetry everywhere means "telemetry off" — the
// same single-nil-check contract the tracer uses.
type Telemetry struct {
	Registry *Registry
	Sampler  *Sampler
	Log      *EventLog
	Flight   *FlightRecorder // nil unless configured

	// workers is swapped by the sweep scheduler at each Prewarm pass while
	// the sampler and HTTP handlers read it concurrently; hence atomic.
	workers atomic.Pointer[WorkerTable]
	server  *httpServer // nil unless configured
	sigquit chan os.Signal
}

// SetWorkers publishes the live worker table (replacing any previous one).
func (t *Telemetry) SetWorkers(w *WorkerTable) { t.workers.Store(w) }

// WorkerTable returns the current worker table, nil when no pool is live.
func (t *Telemetry) WorkerTable() *WorkerTable { return t.workers.Load() }

// TelemetryConfig configures StartTelemetry. Zero values select defaults;
// HTTPAddr "" serves nothing; Flight nil disables the recorder.
type TelemetryConfig struct {
	HTTPAddr       string        // listen address, e.g. ":8080" (empty = no server)
	SampleInterval time.Duration // sampler period (default 500ms)
	SeriesCap      int           // points retained per series (default DefaultSeriesCap)
	LogSegments    int           // event-log segments retained (default DefaultLogSegments)
	Workers        int           // worker-table size (sweep jobs; 0 = no table)
	Flight         *FlightConfig // anomaly-triggered dumps (nil = off)
	SIGQUIT        bool          // also trigger the flight recorder on SIGQUIT
}

// StartTelemetry builds the bundle, starts the sampler, and (when
// configured) the HTTP server and flight recorder. Call Close when done.
func StartTelemetry(cfg TelemetryConfig) (*Telemetry, error) {
	reg := NewRegistry()
	t := &Telemetry{
		Registry: reg,
		Sampler:  NewSampler(reg, cfg.SampleInterval, cfg.SeriesCap),
		Log:      NewEventLog(cfg.LogSegments),
	}
	if cfg.Workers > 0 {
		t.SetWorkers(NewWorkerTable(cfg.Workers))
	}
	if cfg.Flight != nil {
		t.Flight = newFlightRecorder(*cfg.Flight, t)
		t.Sampler.OnSample(t.Flight.check)
		if cfg.SIGQUIT {
			t.sigquit = make(chan os.Signal, 1)
			signal.Notify(t.sigquit, syscall.SIGQUIT)
			go func() {
				for range t.sigquit {
					t.Flight.Trigger("sigquit", "operator-requested dump")
				}
			}()
		}
	}
	if cfg.HTTPAddr != "" {
		srv, err := startHTTPServer(cfg.HTTPAddr, t)
		if err != nil {
			t.Sampler.Stop()
			return nil, err
		}
		t.server = srv
	}
	t.Sampler.Start()
	return t, nil
}

// Addr returns the HTTP server's actual listen address ("" without one) —
// useful with ":0" in tests and smoke jobs.
func (t *Telemetry) Addr() string {
	if t.server == nil {
		return ""
	}
	return t.server.addr()
}

// Close stops the sampler (taking a final sample), waits for in-flight
// recorder dumps, and shuts the HTTP server down.
func (t *Telemetry) Close() error {
	t.Sampler.Stop()
	if t.sigquit != nil {
		signal.Stop(t.sigquit)
		close(t.sigquit)
		t.sigquit = nil
	}
	if t.Flight != nil {
		t.Flight.Wait()
	}
	if t.server != nil {
		return t.server.close()
	}
	return nil
}

// State is the JSON document /api/state serves and the SSE stream pushes:
// a point-in-time view of counters, gauges, series, workers, and dumps.
type State struct {
	NowMs    int64             `json:"now_ms"`
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
	Series   []SeriesSnapshot  `json:"series"`
	Workers  []WorkerRow       `json:"workers,omitempty"`
	Flights  []FlightInfo      `json:"flights,omitempty"`
	Segments int               `json:"segments"`
}

// State snapshots the bundle (maxPoints bounds series length; <= 0 = all).
func (t *Telemetry) State(maxPoints int) State {
	s := State{
		NowMs:    time.Now().UnixMilli(),
		Counters: t.Registry.CounterValues(),
		Gauges:   t.Registry.GaugeValues(),
		Series:   t.Sampler.Snapshot(maxPoints),
		Segments: t.Log.Len(),
	}
	if w := t.WorkerTable(); w != nil {
		s.Workers = w.Snapshot()
	}
	if t.Flight != nil {
		s.Flights = t.Flight.Dumps()
	}
	return s
}
