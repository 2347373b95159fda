package obs

import (
	"strings"
	"testing"
)

func TestWritePromTextAndValidate(t *testing.T) {
	r := NewRegistry()
	r.Counter("htm_tx_commits_total").Add(5)
	r.Counter(`htm_tx_aborts_by_reason_total{reason="conflict"}`).Add(2)
	r.Counter(`htm_tx_aborts_by_reason_total{reason="capacity-load"}`).Add(1)
	r.Gauge("sweep_workers_busy").Set(3)

	var sb strings.Builder
	if err := r.WritePromText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	n, err := ValidatePromText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ValidatePromText: %v\n%s", err, text)
	}
	// 3 counters + 1 gauge.
	if n != 4 {
		t.Fatalf("samples = %d, want 4\n%s", n, text)
	}

	for _, want := range []string{
		"# TYPE htm_tx_commits_total counter\n",
		"htm_tx_commits_total 5\n",
		`htm_tx_aborts_by_reason_total{reason="conflict"} 2` + "\n",
		"# TYPE sweep_workers_busy gauge\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// The labelled counters share one # TYPE line.
	if strings.Count(text, "# TYPE htm_tx_aborts_by_reason_total counter") != 1 {
		t.Fatalf("labelled counter TYPE line repeated:\n%s", text)
	}

	names, err := PromMetricNames(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"htm_tx_commits_total", "htm_tx_aborts_by_reason_total", "sweep_workers_busy"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("PromMetricNames missing %s: %v", want, names)
		}
	}
}

func TestValidatePromTextRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad metric name":     "9bad_name 1\n",
		"unterminated labels": "m{a=\"x\" 1\n",
		"unquoted label":      "m{a=x} 1\n",
		"bad label name":      "m{9a=\"x\"} 1\n",
		"missing value":       "metric_name\n",
		"bad value":           "metric_name abc\n",
		"extra fields":        "metric_name 1 2 3\n",
		"bad timestamp":       "metric_name 1 nope\n",
		"bad TYPE":            "# TYPE m widget\nm 1\n",
		"malformed TYPE":      "# TYPE m\n",
		"TYPE re-declared":    "# TYPE m counter\n# TYPE m gauge\n",
	}
	for name, in := range cases {
		if _, err := ValidatePromText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error for %q", name, in)
		}
	}
}

func TestValidatePromTextAcceptsPermissiveInput(t *testing.T) {
	in := "# free text comment\n" +
		"no_type_metric 1.5\n" +
		"with_ts 2 1712345678000\n" +
		"inf_value +Inf\n" +
		"empty_labels{} 0\n" +
		"multi{a=\"1\",b=\"two, still b\"} 3\n"
	n, err := ValidatePromText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ValidatePromText: %v", err)
	}
	if n != 5 {
		t.Fatalf("samples = %d, want 5", n)
	}
}

func TestPromBase(t *testing.T) {
	if b, l := promBase(`x_total{reason="c"}`); b != "x_total" || l != `{reason="c"}` {
		t.Fatalf("promBase = %q, %q", b, l)
	}
	if b, l := promBase("plain"); b != "plain" || l != "" {
		t.Fatalf("promBase = %q, %q", b, l)
	}
}
