package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4): the wire format the /metrics
// endpoint serves and the only metrics format most scrapers agree on. The
// writer groups samples by base metric name under one # TYPE comment;
// ValidatePromText is the matching in-repo syntax checker CI scrapes
// against, so exposition drift fails the build instead of a dashboard.

// promBase splits a registry metric name into its base name and label part
// ("htm_aborts_total{reason=\"x\"}" → "htm_aborts_total", "{reason=\"x\"}").
func promBase(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// validPromName reports whether s is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validPromLabelName is validPromName without the ':' (colons are reserved
// for recording rules, not label names).
func validPromLabelName(s string) bool {
	if !validPromName(s) {
		return false
	}
	return !strings.ContainsRune(s, ':')
}

// WritePromText writes every metric of the registry in Prometheus text
// exposition format: counters, then gauges, each base name introduced by a
// # TYPE line, samples sorted by full name.
func (r *Registry) WritePromText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastType := ""
	sample := func(kind, name, value string) {
		base, _ := promBase(name)
		if typ := "# TYPE " + base + " " + kind; typ != lastType {
			fmt.Fprintln(bw, typ)
			lastType = typ
		}
		fmt.Fprintf(bw, "%s %s\n", name, value)
	}
	for _, c := range r.Counters() {
		sample("counter", c.name, strconv.FormatUint(c.Value(), 10))
	}
	for _, g := range r.Gauges() {
		sample("gauge", g.name, strconv.FormatInt(g.Value(), 10))
	}
	return bw.Flush()
}

// ValidatePromText checks a Prometheus text exposition for syntactic
// validity: every non-comment line must be `name[{labels}] value [ts]` with
// a legal metric name, well-formed label set and parseable float value, and
// every # TYPE comment must name a legal metric and a known type. It
// returns the number of samples read. It is deliberately strict about
// structure and permissive about semantics (it does not require TYPE
// comments, matching real scrapers).
func ValidatePromText(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	samples := 0
	types := map[string]string{}
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validatePromComment(line, types); err != nil {
				return samples, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := validatePromSample(line); err != nil {
			return samples, fmt.Errorf("line %d: %w", lineNo, err)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	return samples, nil
}

// validatePromComment checks a # line: HELP/TYPE comments must be
// well-formed; other comments are free text.
func validatePromComment(line string, types map[string]string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 || (fields[1] != "TYPE" && fields[1] != "HELP") {
		return nil // free-text comment
	}
	if len(fields) < 3 || !validPromName(fields[2]) {
		return fmt.Errorf("malformed %s comment %q", fields[1], line)
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("TYPE comment wants exactly a name and a type: %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if prev, ok := types[fields[2]]; ok && prev != fields[3] {
			return fmt.Errorf("metric %s re-declared as %s (was %s)", fields[2], fields[3], prev)
		}
		types[fields[2]] = fields[3]
	}
	return nil
}

// validatePromSample checks one sample line: name[{labels}] value [timestamp].
func validatePromSample(line string) error {
	rest := line
	// Metric name.
	nameEnd := 0
	for nameEnd < len(rest) && rest[nameEnd] != '{' && rest[nameEnd] != ' ' && rest[nameEnd] != '\t' {
		nameEnd++
	}
	name := rest[:nameEnd]
	if !validPromName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[nameEnd:]
	// Optional label set.
	if strings.HasPrefix(rest, "{") {
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return fmt.Errorf("unterminated label set in %q", line)
		}
		if err := validatePromLabels(rest[1:end]); err != nil {
			return err
		}
		rest = rest[end+1:]
	}
	// Value and optional timestamp.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("sample %q wants `value [timestamp]` after the name", line)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		// Prometheus also allows +Inf/-Inf/NaN, which ParseFloat accepts.
		return fmt.Errorf("unparseable sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("unparseable timestamp %q", fields[1])
		}
	}
	return nil
}

// validatePromLabels checks the inside of a {...} label set.
func validatePromLabels(s string) error {
	if strings.TrimSpace(s) == "" {
		return nil // empty label set is legal
	}
	for _, pair := range splitPromLabels(s) {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return fmt.Errorf("label pair %q missing '='", pair)
		}
		name := strings.TrimSpace(pair[:eq])
		val := strings.TrimSpace(pair[eq+1:])
		if !validPromLabelName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
			return fmt.Errorf("label value %s must be double-quoted", val)
		}
		if _, err := strconv.Unquote(val); err != nil {
			return fmt.Errorf("bad escaping in label value %s", val)
		}
	}
	return nil
}

// splitPromLabels splits a label body on commas outside quoted values.
func splitPromLabels(s string) []string {
	var out []string
	depth := false // inside a quoted value
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// PromMetricNames returns the sorted distinct base metric names of an
// exposition — handy for smoke assertions ("did the scrape contain
// htm_tx_aborts_total at all?").
func PromMetricNames(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	seen := map[string]bool{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		end := 0
		for end < len(line) && line[end] != '{' && line[end] != ' ' {
			end++
		}
		seen[line[:end]] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}
