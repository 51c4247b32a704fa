package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Rig constants shared by every workload. The generator samples on
// wall-clock multiples of interval; updaters run synchronous=1 at
// pullOffset behind it (the paper's recommended phasing), and the top of a
// two-hop rig a further hop behind the mid tier.
const (
	interval      = 100 * time.Millisecond
	pullOffset    = 20 * time.Millisecond
	topHopOffset  = 60 * time.Millisecond
	numGens       = 2 // nproc is 2: one listener (one producer connection) per core
	probesPerGen  = 4
	daemonMemory  = 256 << 20 // -m: the 2 MiB default mirrors only a third of the wide sets
	storeQueue    = 16384     // strgp queue=: the 1024 default is half of one steady_fanin pass
	queryWindow   = 5 * time.Second
	queryRate     = 100                           // requests per second, open loop
	edgePhase     = 90 * time.Millisecond         // window edges sit after the pass, before the next sample
	perSlice      = int64(time.Second / interval) // samples per one-second slice of the window
	leafPlugins   = "meminfo vmstat procstat loadavg procnetdev ldmsd_self"
	benchmarkFile = "BENCHMARK.json"

	// Every gateway runs -http-points 64, and the window starts only once
	// the rings are full: until then each sample claims fresh memory, and
	// first-touch page faults would land inside the window.
	httpPoints = 64
	ringFill   = httpPoints*interval + 600*time.Millisecond
)

// workload is one named traffic shape. Names are fixed: later issues cite
// them.
type workload struct {
	name       string
	schema     string // synthetic schema name
	card       int    // metrics per synthetic set
	change     int    // metrics that change per sample (card = every metric)
	setsPerGen int
	tiered     bool // real leaf ldmsd + reducing mid tier below the top
	reader     bool // open-loop query mix against the top gateway
	passes     int  // traced passes of the replay (as many again run untraced)
}

var workloads = []workload{
	{name: "steady_fanin", schema: "synth64", card: 64, change: 8, setsPerGen: 1024, passes: 20},
	{name: "wide_churn", schema: "synth512", card: 512, change: 512, setsPerGen: 128, passes: 20},
	{name: "tiered_reduce", schema: "synth64", card: 64, change: 8, setsPerGen: 256, tiered: true, passes: 40},
	{name: "query_mix", schema: "synth64", card: 64, change: 8, setsPerGen: 128, reader: true, passes: 60},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the set population (tests and quick looks); the shape of
// the traffic stays the same.
func (w workload) scaled(f float64) workload {
	if f > 0 && f != 1 {
		w.setsPerGen = max(8, int(float64(w.setsPerGen)*f))
	}
	return w
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// layerBounds are the bounds -compare holds per-layer rows to. BENCHMARK.json
// gives a bound to end-to-end metrics only, and those must read non-zero on
// every workload and repeat within their bound on this box, so the issue's
// workload-specific end-to-end rows, and agg_cpu_us_per_sample (which this
// box repeats to 10-25 %, see README), are per-layer rows there; their bounds
// live here so that a CPU, read-path, loss or leaf-footprint regression still
// fails -compare. rel is a share of the old
// median, applied on the workloads where that is not zero; abs is an
// absolute allowance, for ratios that read 0 on a healthy run.
var layerBounds = map[string]struct{ rel, abs float64 }{
	"agg_cpu_us_per_sample":  {rel: 0.25},
	"loss_ratio":             {abs: 0.001},
	"query_fail_ratio":       {abs: 0.001},
	"query_ms_p50":           {rel: 0.15},
	"query_ms_p95":           {rel: 0.25},
	"query_cpu_us_per_req":   {rel: 0.25},
	"leaf_cpu_us_per_sample": {rel: 0.25},
	"leaf_rss_mb":            {rel: 0.10},
}

// benchDecl is the subset of BENCHMARK.json the bench itself reads: the
// metric names it must emit and the bounds -compare applies.
type benchDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDecl(root string) (*benchDecl, error) {
	b, err := os.ReadFile(filepath.Join(root, benchmarkFile))
	if err != nil {
		return nil, err
	}
	var d benchDecl
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return &d, nil
}
