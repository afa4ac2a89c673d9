// Command perfbench is the repository's end-to-end benchmark. It times the
// three paths a user of the planner sees — planning (mario.Optimize),
// serving (a mariod fleet answering plan requests) and running a plan (the
// emulated cluster and the miniature trainer) — and, in a separate traced
// run, the layers below them. It only calls the program's public functions
// and reads the counters and spans the program already exports.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload plan-gpt3-13b-64 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it, each starting
// with "#", are a human-readable log. See NOTES.md for the workloads, the
// metrics and how they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload receives: its seed, how long to measure, and — in
// a traced run — the span recorder the benchmark times its calls with.
type env struct {
	seed    int64
	seconds time.Duration
	spans   *recorder // nil unless traced
}

func (e *env) traced() bool { return e.spans != nil }

// logf writes one "#"-prefixed log line to standard output.
func logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// errWrong marks an op whose output failed a correctness check, as opposed
// to one that failed or was refused.
var errWrong = errors.New("wrong output")

// wrongf returns an error wrapping errWrong.
func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// quality describes the plans a workload's users received. Every workload
// reports it for the plans it deals in, so a speed-up that changes the plan
// shows as a quality change.
type quality struct {
	// planSamples is the planner's predicted throughput in samples/s.
	planSamples float64
	// measuredSamples is the emulator's throughput in samples/s.
	measuredSamples float64
	// predictErrPct is |simulated − emulated iteration time| / emulated.
	predictErrPct float64
	// peakGB is the emulator's worst-device peak memory.
	peakGB float64
}

// sample is one measured op: its wall-clock latency and the CPU time the
// whole process spent while it ran.
type sample struct {
	wall, cpu time.Duration
}

// report is what a workload measured in one run.
type report struct {
	setup     []time.Duration // process CPU time of each repeated set-up
	lat       []time.Duration // per-op wall-clock latency, for the log
	cpu       []time.Duration // per-op process CPU time
	attempted int
	failed    int
	wrong     int
	quality   quality
	layers    layers // per-layer metrics (traced runs)
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(e *env) (*report, error)
}

var workloads = []workload{
	{"plan-gpt3-13b-64", runPlan},
	{"serve-fleet-mix", runServe},
	{"run-gpt3-13b-64", runWinner},
}

// kern is the calibration kernel every measured time is rescaled with.
var kern *kernel

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second}
	kern = newKernel()
	if traced {
		e.spans = newRecorder()
	}
	rep, err := w.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if rep.attempted < 1 {
		return fmt.Errorf("%s: no op attempted", name)
	}
	out := output{
		Correct:   rep.wrong == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		if rep.layers == nil {
			rep.layers = layers{}
		}
		rep.layers.complete()
		out.Metrics = rep.layers
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := e.spans.write(path); err != nil {
			return err
		}
		logf("spans written to %s", path)
	} else {
		endToEnd(rep, out.Metrics)
	}
	logf("%s: %d ops attempted, %d failed, %d wrong", name, rep.attempted, rep.failed, rep.wrong)
	logf("kernel CPU ms: p25 %.4g, p50 %.4g, p75 %.4g over %d runs; times rescale by %.4g",
		ms(quantile(kern.runs, 0.25)), ms(median(kern.runs)), ms(quantile(kern.runs, 0.75)), len(kern.runs),
		float64(refKernel)/float64(median(kern.runs)))
	for _, q := range []struct {
		name string
		ds   []time.Duration
	}{{"CPU", rep.cpu}, {"wall", rep.lat}} {
		if len(q.ds) > 0 {
			logf("op %s ms: p10 %.4g, p25 %.4g, p50 %.4g, p75 %.4g, p90 %.4g over %d samples", q.name,
				ms(quantile(q.ds, 0.1)), ms(quantile(q.ds, 0.25)), ms(quantile(q.ds, 0.5)),
				ms(quantile(q.ds, 0.75)), ms(quantile(q.ds, 0.9)), len(q.ds))
		}
	}
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		logf("  %-32s %14.6g %s", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd fills the end-to-end metrics every workload reports. The times
// are process CPU times, not wall-clock ones (see cpuTime), rescaled to the
// reference machine's speed (see kernel).
func endToEnd(rep *report, m map[string]metric) {
	m["setup_s"] = metric{kern.rescale(median(rep.setup)).Seconds(), "s"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	m["op_cpu_ms"] = metric{ms(kern.rescale(median(rep.cpu))), "ms"}
	m["plan_samples_per_s"] = metric{rep.quality.planSamples, "samples/s"}
	m["measured_samples_per_s"] = metric{rep.quality.measuredSamples, "samples/s"}
	m["predict_err_pct"] = metric{rep.quality.predictErrPct, "%"}
	m["measured_peak_mem_gb"] = metric{rep.quality.peakGB, "GB"}
}

// maxRSSMB returns the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the CPU time the process has used so far, all its
// threads together, user and system. The kernel leaves out the time a
// virtual CPU was stolen by the host, and the time the process waited for a
// CPU, so on a shared machine this figure moves with the program's work and
// not with its neighbours' load, which wall-clock time does — on a 2-vCPU
// VM by a factor of two from one minute to the next.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// measure runs fn and returns its wall-clock and process CPU time.
func measure(fn func()) sample {
	c0, t0 := cpuTime(), time.Now()
	fn()
	return sample{wall: time.Since(t0), cpu: cpuTime() - c0}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds by the nearest-rank method.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// repeatSetup runs setup setupReps times, measuring each one's process CPU
// time, releases and drops each result before the next set-up, and returns
// the last. Each set-up, and the measurement after them, starts from a
// settled heap.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, []time.Duration, error) {
	var cur T
	var times, walls []time.Duration
	for i := 0; i < setupReps; i++ {
		if i > 0 && release != nil {
			release(cur)
		}
		var zero T
		cur = zero // so the next set-up starts beside no earlier result
		settle()
		kern.run()
		t0, c0 := time.Now(), cpuTime()
		st, err := setup()
		if err != nil {
			return st, nil, fmt.Errorf("set-up: %w", err)
		}
		times, walls = append(times, cpuTime()-c0), append(walls, time.Since(t0))
		cur = st
	}
	settle()
	logf("set-up: %.4f s CPU, %.4f s wall (medians of %d); peak RSS so far %.1f MB",
		median(times).Seconds(), median(walls).Seconds(), setupReps, maxRSSMB())
	return cur, times, nil
}

// settle collects the garbage made so far and returns it to the OS, so every
// set-up and the measured window start from the same heap and do not pay for
// earlier work's collection.
func settle() { debug.FreeOSMemory() }

// countWrong records a failed op: any error counts as failed, one wrapping
// errWrong also as wrong. A nil error records nothing.
func countWrong(rep *report, op int, err error) {
	if err == nil {
		return
	}
	rep.failed++
	if errors.Is(err, errWrong) {
		rep.wrong++
	}
	logf("op %d: %v", op, err)
}

// add records one measured op.
func (rep *report) add(s sample) {
	rep.lat = append(rep.lat, s.wall)
	rep.cpu = append(rep.cpu, s.cpu)
}

// closedLoop calls op back to back, with a kernel run before each, until
// the measured time has passed. Each op returns the measurement of its
// timed call (its correctness checks run outside it). An op returning an
// error wrapping errWrong counts as wrong and failed; any other error as
// failed.
func closedLoop(e *env, rep *report, op func(i int) (sample, error)) {
	deadline := time.Now().Add(e.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		kern.run()
		s, err := op(i)
		rep.add(s)
		rep.attempted++
		countWrong(rep, i+1, err)
	}
}
