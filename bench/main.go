// Command bench is the repository's benchmark: it builds cmd/ldmsd, runs
// real ldmsd processes over loopback TCP against a seeded synthetic leaf
// tier, measures them only from outside (/proc, the control socket, the
// HTTP gateway, the CSVs they write), checks what they stored against the
// seed, and — with -trace 1 — replays the same pipeline through each
// layer's public functions with a span around every call.
//
// It is run through run.sh (see BENCHMARK.json), which builds it with a
// build cache inside the checkout:
//
//	bash bench/run.sh --workload steady_fanin --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Everything else goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() { os.Exit(run()) }

func run() int {
	// Two more Ps than cores: the open-loop writer and the stall watch are
	// then scheduled by the kernel instead of queueing behind the serve
	// goroutines, which hold both cores' Ps for tens of milliseconds when
	// every pull moves a deflated 4 KB chunk.
	runtime.GOMAXPROCS(runtime.NumCPU() + 2)
	var (
		name    = flag.String("workload", "", "workload to run: steady_fanin, wide_churn, tiered_reduce, query_mix")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 12, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics with the traced replay")
		repeat  = flag.Int("repeat", 0, "run the workload N times on seeds seed..seed+N-1 and print min/median/max and spread per metric")
		out     = flag.String("out", "", "with -repeat: also write every run's metrics to this JSON file, the input of -compare")
		compare = flag.Bool("compare", false, "compare two -out files (old new) under the bounds in BENCHMARK.json; exit 1 on a regression")
	)
	flag.Parse()

	dir, err := findRoot()
	if err != nil {
		logf("%v", err)
		return 2
	}
	if err := os.Chdir(dir); err != nil {
		logf("%v", err)
		return 2
	}
	decl, err := loadDecl(".")
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			logf("-compare wants two files: old.json new.json")
			return 2
		}
		return compareFiles(decl, flag.Arg(0), flag.Arg(1))
	}
	w, err := findWorkload(*name)
	if err != nil {
		logf("%v", err)
		return 2
	}

	// Everything the bench starts hangs off this context: a signal or the
	// hard deadline cancels it, which terminates the children, and the
	// deferred clean-ups remove the scratch directory on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	o := &options{
		work:   ".bench_build",
		out:    filepath.Join("bench", "out"),
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		warmup: ringFill,
		setups: 5,
		trace:  *trace != 0,
		scale:  1,
	}
	if o.ldmsd, err = buildLdmsd(ctx, o.work); err != nil {
		logf("%v", err)
		return 2
	}
	pinSelf(leafCPUs())
	logf("nproc=%d GOMAXPROCS=%d go=%s commit=%s workload=%s seed=%d seconds=%d trace=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), w.name, o.seed, *seconds, *trace)

	if *repeat > 0 {
		return repeatRuns(ctx, decl, w, o, *repeat, *out)
	}
	res, err := measure(ctx, w, o)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	for _, p := range res.Problems {
		logf("%s: FAILED CHECK: %s", w.name, p)
	}
	report(decl, res, o.trace)
	line, err := resultLine(decl, res, o.trace)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// findRoot locates the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, benchmarkFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s at or above the working directory", benchmarkFile)
		}
		dir = parent
	}
}

// buildLdmsd builds the daemon under test from the checkout's source.
func buildLdmsd(ctx context.Context, work string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(work, "ldmsd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ldmsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ldmsd: %v\n%s", err, out)
	}
	return bin, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultLine is the line the driver reads: every end-to-end metric of
// BENCHMARK.json for -trace 0, every per-layer metric for -trace 1. A metric
// declared but not measured, or measured but not declared, is an error: the
// file and the bench may not drift apart.
func resultLine(decl *benchDecl, res *result, trace bool) ([]byte, error) {
	decls, vals := decl.EndToEnd, res.EndToEnd
	if trace {
		decls, vals = decl.PerLayer, res.PerLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricOut{}
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s is declared in %s but was not measured", res.Workload, d.Name, benchmarkFile)
		}
		metrics[d.Name] = metricOut{v, d.Unit}
	}
	for k := range vals {
		if _, ok := metrics[k]; !ok {
			return nil, fmt.Errorf("%s: metric %s was measured but is not declared in %s", res.Workload, k, benchmarkFile)
		}
	}
	return json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
}

// report prints every measured metric by name with its unit to standard
// error, for people; resultLine is the machine's.
func report(decl *benchDecl, res *result, trace bool) {
	show := func(decls []metricDecl, vals map[string]float64) {
		for _, d := range decls {
			if v, ok := vals[d.Name]; ok {
				fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	show(decl.EndToEnd, res.EndToEnd)
	if trace || !res.Correct || res.Failed > 0 {
		show(decl.PerLayer, res.PerLayer) // a failed run shows its outside counters too, for the post-mortem
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
