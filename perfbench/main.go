// Command perfbench is the repository's benchmark: it runs one named
// workload against the verified store, the network service, the
// checkpointing layer or the paper's simulator, checks every output
// against its own model of what the program must produce, and prints the
// metrics as one JSON line.
//
//	perfbench --workload store-local --seed 1 --seconds 10 --trace 0
//	perfbench repeat --workload store-local --seeds 1-10 --out a.json
//	perfbench compare --bench ../BENCHMARK.json a.json b.json
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once traced (spans, handler timing,
// engine replay, CPU profile) and prints the per-layer metrics. See
// README.md for the workloads and what each metric is expected to move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detailPrefix marks the line before the report that carries what the
// report's fixed key set has no room for: tails, checkpoint figures,
// sample counts and the deterministic counters repeat mode compares.
const detailPrefix = "perfbench-detail: "

// outcome is what one workload run hands back to main.
type outcome struct {
	attempted uint64
	metrics   map[string]metric
	detail    map[string]float64
}

// errCheck marks a failed correctness check: the run reports
// correct=false and exits nonzero.
type errCheck struct{ msg string }

func (e *errCheck) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &errCheck{fmt.Sprintf(format, args...)}
}

// options are the run flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

// workloads maps each workload of BENCHMARK.json to its run; README.md
// says what each is made of and why.
var workloads = map[string]func(o options) (*outcome, error){
	"store-local":    runStoreLocal,
	"store-remote":   runStoreRemote,
	"checkpoint-hot": runCheckpointHot,
	"sim-paper":      runSimPaper,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "repeat":
			os.Exit(repeatMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "timed-phase length in seconds (whole rounds; at least the deterministic window)")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for checkpoints, traces and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = traceFlag == 1
	// One process per run; the scratch directory is private to it.
	o.workdir = filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.workdir)

	out, err := run(o)
	var ce *errCheck
	switch {
	case errors.As(err, &ce):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		printReport(report{Correct: false, Attempted: max(1, attemptedOf(out)), Metrics: map[string]metric{}}, nil)
		return 1
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(report{Correct: true, Attempted: out.attempted, Metrics: out.metrics}, out.detail)
	return 0
}

func attemptedOf(o *outcome) uint64 {
	if o == nil {
		return 0
	}
	return o.attempted
}

func printReport(r report, detail map[string]float64) {
	w := bufio.NewWriter(os.Stdout)
	if detail != nil {
		d, _ := json.Marshal(detail) // map[string]float64 always marshals
		fmt.Fprintf(w, "%s%s\n", detailPrefix, d)
	}
	b, _ := json.Marshal(r) // plain structs always marshal
	fmt.Fprintf(w, "%s\n", b)
	w.Flush()
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// stealMeter measures the share of the machine's CPU time the hypervisor
// gave to other guests (the steal column of /proc/stat) over an interval.
// Host-time metrics of a run with a high share are not comparable with
// those of a quiet run; repeat prints it beside them.
type stealMeter struct {
	ticks float64
	start time.Time
}

func startSteal() stealMeter { return stealMeter{ticks: stealTicks(), start: time.Now()} }

// share returns stolen CPU time over CPU time available since start, or
// 0 when /proc/stat is unreadable.
func (s stealMeter) share() float64 {
	const userHZ = 100 // /proc/stat counts in USER_HZ ticks
	cpu := time.Since(s.start).Seconds() * float64(runtime.NumCPU())
	return (stealTicks() - s.ticks) / userHZ / cpu
}

func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64) // unparsable reads as 0 like a missing file
	return v
}

// releaseMemory returns a discarded set-up's memory before the next one,
// so repeated set-ups do not stack up in the resident-set peak.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setupReps is how many times a run sets up; setup_s is their median
// and only the last set-up is used.
const setupReps = 3
