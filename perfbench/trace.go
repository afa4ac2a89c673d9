package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mario/internal/telemetry"
)

// span is one call the benchmark made into the program, timed from outside.
// Spans of one op (a plan, a request, an iteration) share Op; Op 0 marks a
// call made outside any op, such as a replay or a direct layer call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for an op's root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the recorder was made
	End    float64 `json:"end_us"`
}

// recorder keeps the benchmark's own spans in memory until the run ends. A
// nil recorder records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0)) / float64(time.Microsecond) }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: r.now()})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = r.now()
	r.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(op, parent int, name string, fn func()) time.Duration {
	id := r.begin(op, parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// selfByName sums each span name's self time — its duration minus the part
// its child spans cover — over all ops, in milliseconds.
func (r *recorder) selfByName() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]float64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range r.spans {
		out[s.Name] += (s.End - s.Start - child[s.ID]) / 1000
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// phaseSelf sums the self time of each phase of the program's own search
// trace, in milliseconds.
func phaseSelf(tr *telemetry.Trace) map[telemetry.Phase]float64 {
	out := map[telemetry.Phase]float64{}
	for _, row := range tr.PhaseSummary() {
		out[row.Phase] += ms(row.Self)
	}
	return out
}

// promSeries parses a Prometheus text exposition into series → value, the
// series written as in the text, e.g. `mario_search_points_total{outcome="oom"}`.
func promSeries(text []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// registrySeries renders a registry and parses it back.
func registrySeries(reg *telemetry.Registry) (map[string]float64, error) {
	var b bytes.Buffer
	reg.WriteProm(&b)
	return promSeries(b.Bytes())
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
