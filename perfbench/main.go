// Command perfbench is the repository's benchmark. It runs one
// workload for a fixed time, checks the outputs, and prints the metrics
// declared in BENCHMARK.json as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload gnp-sparsify --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (perfbench/run.py builds and runs it
// there). With --trace 0 it prints the end-to-end metrics of an
// untraced run. With --trace 1 it runs the timed loop twice, untraced
// and then with spans around every call into a layer, and prints the
// per-layer metrics, including the tracing overhead on each end-to-end
// metric. Spans are written to .bench_build/spans when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench){
	"gnp-sparsify": runGnp,
	"grid-solve":   runGrid,
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	tr       *tracer // spans of the traced phase; nil in an untraced run
	cal      *calibrator
	// speed is calNominalMs over the kernel time of the untraced phase;
	// the end-to-end figures are reported multiplied by it.
	speed float64

	vals      map[string]float64
	mu        sync.Mutex // guards attempted and failed
	attempted int
	failed    int
}

func main() {
	workload := flag.String("workload", "", "workload to run: gnp-sparsify or grid-solve")
	seed := flag.Uint64("seed", 1, "seed the inputs are made from")
	seconds := flag.Float64("seconds", 20, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {gnp-sparsify,grid-solve}, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	defs, err := loadDefs("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	// Both dist specs run at P=2 and the serve probe opens two
	// connections: more Go threads than CPUs would measure the scheduler,
	// not the code.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d exceeds nproc=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		vals:     map[string]float64{},
		cal:      newCalibrator(),
	}
	if b.traced {
		b.tr = newTracer()
	}
	b.note("workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s",
		b.workload, b.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	run(b)
	b.vals["peak_rss_mb"] = peakRSSMB()
	s := slots[b.workload]
	b.note("op1_ms: %s; op2_ms: %s; op3_ms: %s", s[0], s[1], s[2])

	want := defs.EndToEnd
	if b.traced {
		for layer, s := range b.tr.selfSeconds() {
			b.vals[layer+".self_s"] = s
		}
		if err := b.tr.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)); err != nil {
			b.fail("writing spans: %v", err)
		}
		want = defs.PerLayer
	}
	b.report(want)
}

// note prints one provenance or progress line to standard output.
func (b *bench) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// fail counts a failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	b.failed++
	b.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// op counts an attempted operation; it fails when err is non-nil or ok
// is false. It is safe for concurrent use.
func (b *bench) op(err error, ok bool, what string) bool {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	switch {
	case err != nil:
		b.fail("%s: %v", what, err)
		return false
	case !ok:
		b.fail("%s: wrong output", what)
		return false
	}
	return true
}

// setups runs one set-up reps times, each from a collected heap, and
// records the median as setup_s.
// In a traced run every other repetition is traced, and the difference
// of the traced and untraced medians is the tracing overhead.
func (b *bench) setups(reps int, setup func(tr *tracer)) {
	var plain, traced []float64
	for i := 0; i < reps; i++ {
		tr := (*tracer)(nil)
		if b.traced && i%2 == 1 {
			tr = b.tr
		}
		runtime.GC()
		start := time.Now()
		setup(tr)
		if tr != nil {
			traced = append(traced, time.Since(start).Seconds())
		} else {
			plain = append(plain, time.Since(start).Seconds())
		}
	}
	b.vals["setup_s"] = median(plain)
	if b.traced {
		b.vals["overhead.setup_s"] = median(traced) - median(plain)
	}
}

// timed runs the timed loop, which returns the op1_ms..op3_ms values of
// one phase. An untraced run has one phase. A traced run has a second,
// traced phase of the same length; the per-layer numbers come from it
// and the tracing overhead is its values minus the untraced ones.
func (b *bench) timed(loop func(tr *tracer, until time.Time) map[string]float64) {
	plain := loop(nil, time.Now().Add(b.seconds))
	for k, v := range plain {
		b.vals[k] = v
	}
	b.speed = b.cal.factor()
	if !b.traced {
		return
	}
	traced := loop(b.tr, time.Now().Add(b.seconds))
	for k, v := range traced {
		b.vals["overhead."+k] = v - plain[k]
	}
}

// report prints the last line: every declared metric of the run's kind.
// A per-layer metric of a layer the workload never calls reads 0.
func (b *bench) report(want []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	names := make([]string, 0, len(want))
	for _, d := range want {
		v := b.vals[d.Name]
		if !b.traced {
			// Every end-to-end metric is a time.
			b.note("%s measured %.6g %s", d.Name, v, d.Unit)
			v *= b.speed
		}
		out[d.Name] = value{v, d.Unit}
		names = append(names, d.Name)
	}
	b.note("speed factor %.4f (calibration kernel %.3f ms vs %d ms nominal)", b.speed, calNominalMs/b.speed, calNominalMs)
	sort.Strings(names)
	b.note("fail_rate=%g (%d of %d operations failed or were wrong)",
		float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	for _, n := range names {
		b.note("%-36s %14.6g %s", n, out[n].Value, out[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, max(b.attempted, 1), b.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// peakRSSMB returns the process's peak resident set in MB. Each run is
// its own process running one workload, so one workload's peak cannot
// leak into another's.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mean returns the average of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// cost is what one timed call took.
type cost struct {
	ms         float64 // wall-clock
	allocBytes float64
	gcCycles   float64
}

// timeOp runs one timed call into a layer under a span and returns its
// cost. It collects garbage first, untimed, so every call starts from the
// same heap: without it the garbage the previous call left moved
// Sharded(2) by a third. Then it times the calibration kernel once, also
// outside the call's time.
func (b *bench) timeOp(tr *tracer, parent int, layer, name string, call func()) cost {
	runtime.GC()
	b.cal.run()
	_, end := tr.begin(parent, layer, name)
	defer end()
	h := readHeap()
	start := time.Now()
	call()
	c := cost{ms: ms(time.Since(start))}
	c.allocBytes, c.gcCycles = h.since()
	return c
}
