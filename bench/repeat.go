package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// runLog is the -out file: per workload, every run's value of every metric,
// in run order. -repeat appends to it; -compare reads two of them.
type runLog map[string]map[string][]float64

func readRunLog(path string) (runLog, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l runLog
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// quartiles are the cut points statistics.quantiles(values, n=4) gives in
// Python (the exclusive method), which is what the driver computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// repeatRuns runs w n times on consecutive seeds and prints, per metric, the
// minimum, median and maximum and the relative spread: the distance between
// the quartiles as a share of the median, the acceptance figure.
func repeatRuns(ctx context.Context, decl *benchDecl, w workload, o *options, n int, out string) int {
	decls := decl.EndToEnd
	if o.trace {
		decls = decl.PerLayer
	}
	vals := map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		oi := *o
		oi.seed = o.seed + uint64(i)
		res, err := measure(ctx, w, &oi)
		if err != nil {
			logf("%s seed %d: %v", w.name, oi.seed, err)
			return 1
		}
		for _, p := range res.Problems {
			logf("%s seed %d: FAILED CHECK: %s", w.name, oi.seed, p)
		}
		if !res.Correct || res.Failed > 0 {
			code = 1
			report(decl, res, o.trace)
		}
		m := res.EndToEnd
		if o.trace {
			m = res.PerLayer
		}
		for _, d := range decls {
			vals[d.Name] = append(vals[d.Name], m[d.Name])
		}
		logf("%s seed %d: correct=%v attempted=%d failed=%d", w.name, oi.seed, res.Correct, res.Attempted, res.Failed)
	}
	fmt.Printf("%s, %d runs, seeds %d..%d\n", w.name, n, o.seed, o.seed+uint64(n)-1)
	fmt.Printf("  %-36s %12s %12s %12s %8s %7s  %s\n", "metric", "min", "median", "max", "spread", "bound", "unit")
	for _, d := range decls {
		v := vals[d.Name]
		q1, q2, q3 := quartiles(v)
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		spread, bound := "-", "-"
		if q2 != 0 {
			spread = fmt.Sprintf("%.1f%%", 100*(q3-q1)/q2)
		}
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Printf("  %-36s %12.4f %12.4f %12.4f %8s %7s  %s\n", d.Name, s[0], q2, s[len(s)-1], spread, bound, d.Unit)
	}
	if out != "" {
		l, err := readRunLog(out)
		if err != nil {
			l = runLog{}
		}
		if l[w.name] == nil {
			l[w.name] = map[string][]float64{}
		}
		for k, v := range vals {
			l[w.name][k] = v
		}
		b, _ := json.MarshalIndent(l, "", " ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			logf("%v", err)
			return 1
		}
	}
	return code
}

// compareFiles applies the bounds to two run logs: for every metric that has
// one (end-to-end rows in BENCHMARK.json, per-layer rows in layerBounds), on
// every workload both files hold it for, the new median may be worse than
// the old by at most the bound.
func compareFiles(decl *benchDecl, oldPath, newPath string) int {
	oldLog, err := readRunLog(oldPath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	newLog, err := readRunLog(newPath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	code, compared := 0, 0
	for _, wl := range decl.Workloads {
		o, n := oldLog[wl.Name], newLog[wl.Name]
		if o == nil || n == nil {
			continue
		}
		fmt.Printf("%s\n  %-28s %12s %12s %8s %8s\n", wl.Name, "metric", "old median", "new median", "change", "bound")
		for _, d := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
			lb, bounded := layerBounds[d.Name]
			if len(o[d.Name]) == 0 || len(n[d.Name]) == 0 || d.Bound == 0 && !bounded {
				continue
			}
			_, om, _ := quartiles(o[d.Name])
			_, nm, _ := quartiles(n[d.Name])
			if om == 0 && lb.abs == 0 {
				continue // a relative bound on a workload the metric does not apply to
			}
			worse := nm - om
			if d.Better == "higher" {
				worse = -worse
			}
			allowed, bound := lb.abs, fmt.Sprintf("+%g", lb.abs)
			if lb.abs == 0 {
				rel := max(d.Bound, lb.rel)
				allowed, bound = rel*om, fmt.Sprintf("%.0f%%", 100*rel)
			}
			verdict := ""
			if worse > allowed {
				verdict = "  REGRESSION"
				code = 1
			}
			compared++
			fmt.Printf("  %-28s %12.4f %12.4f %+7.1f%% %8s%s\n", d.Name, om, nm, 100*ratio(nm-om, om), bound, verdict)
		}
	}
	if compared == 0 {
		logf("the two files share no bounded metric on any workload")
		return 2
	}
	return code
}
