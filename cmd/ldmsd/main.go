// Command ldmsd runs one LDMS daemon: a sampler on compute nodes, an
// aggregator (with optional stores) on service nodes. Differentiation is
// entirely configuration, exactly as in the paper (§IV-B).
//
// Configuration uses the ldmsd_controller-style text commands, either from
// a file at startup (-c) or at runtime over the UNIX-domain control socket
// (-S), which ldmsctl speaks.
//
// Example sampler:
//
//	ldmsd -x sock:127.0.0.1:10444 -S /tmp/ldmsd.sock -c sampler.conf
//
// with sampler.conf:
//
//	load name=meminfo
//	config name=meminfo component_id=42
//	start name=meminfo interval=1000000
//
// Example aggregator (with the HTTP query & observability gateway):
//
//	ldmsd -S /tmp/agg.sock -m 64000000 -http :8080 -c agg.conf
//
// with agg.conf:
//
//	prdcr_add name=n1 xprt=sock host=127.0.0.1:10444 interval=2000000
//	prdcr_start name=n1
//	updtr_add name=all interval=1000000
//	updtr_prdcr_add name=all prdcr=n1
//	updtr_start name=all
//	strgp_add name=store plugin=store_csv schema=meminfo container=/tmp/meminfo.csv queue=1024 batch=256 flush_interval=1s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"goldms/internal/core"
	"goldms/internal/ldmsd"
	"goldms/internal/obs"
	"goldms/internal/transport"
)

func main() {
	var (
		name    = flag.String("n", hostnameOr("ldmsd"), "daemon name (component/producer name)")
		listen  = flag.String("x", "", "listen on transport:address, e.g. sock:0.0.0.0:10444 (repeatable via commas)")
		ctlSock = flag.String("S", "", "UNIX-domain control socket path")
		conf    = flag.String("c", "", "configuration script to run at startup")
		mem     = flag.Int("m", ldmsd.DefaultMemory, "metric set memory budget in bytes")
		workers = flag.Int("P", 4, "worker thread count")
		stWork  = flag.Int("store-workers", 0, "store pipeline drain/flush worker count (default 2)")
		compID  = flag.Uint64("i", 0, "default component id for sampler sets")
		version = flag.Bool("V", false, "print version and exit")

		httpAddr   = flag.String("http", "", "HTTP query/observability gateway address, e.g. :8080")
		httpWindow = flag.Duration("http-window", 0, "recent-window retention for /api/v1/series (default 10m; 0 keeps the default)")
		httpPoints = flag.Int("http-points", 0, "max points kept per metric series (default 1024)")
		httpShards = flag.Int("http-shards", 0, "window cache shard count, rounded up to a power of two (default 16)")
		httpPProf  = flag.Bool("http-pprof", false, "also mount /debug/pprof on the gateway")

		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		journal   = flag.Int("journal", 0, "event journal capacity in entries (default 512)")
	)
	flag.Parse()
	if *version {
		fmt.Println("ldmsd (goldms)", core.Version)
		return
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}

	d, err := ldmsd.New(ldmsd.Options{
		Name:         *name,
		Workers:      *workers,
		StoreWorkers: *stWork,
		Memory:       *mem,
		CompID:       *compID,
		Logger:       logger,
		JournalSize:  *journal,
		Transports: []transport.Factory{
			transport.SockFactory{},
			transport.RDMAFactory{Kind: "rdma"},
			transport.RDMAFactory{Kind: "ugni"},
		},
	})
	if err != nil {
		fatal(err)
	}
	defer d.Stop()

	if *listen != "" {
		for _, spec := range strings.Split(*listen, ",") {
			parts := strings.SplitN(spec, ":", 2)
			if len(parts) != 2 {
				fatal(fmt.Errorf("ldmsd: bad -x %q (want transport:address)", spec))
			}
			addr, err := d.Listen(parts[0], parts[1])
			if err != nil {
				fatal(err)
			}
			fmt.Printf("ldmsd %s: listening on %s:%s\n", *name, parts[0], addr)
		}
	}
	if *httpAddr != "" {
		bound, err := d.ServeHTTP(ldmsd.GatewayConfig{
			Addr:   *httpAddr,
			Window: *httpWindow,
			Points: *httpPoints,
			Shards: *httpShards,
			PProf:  *httpPProf,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ldmsd %s: http gateway on %s\n", *name, bound)
	}
	if *ctlSock != "" {
		cs, err := d.ServeControl(*ctlSock)
		if err != nil {
			fatal(err)
		}
		defer cs.Close()
		fmt.Printf("ldmsd %s: control socket %s\n", *name, *ctlSock)
	}
	if *conf != "" {
		script, err := os.ReadFile(*conf)
		if err != nil {
			fatal(err)
		}
		out, err := d.ExecScript(string(script))
		if out != "" {
			fmt.Print(out)
		}
		if err != nil {
			fatal(err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("ldmsd %s: shutting down\n", *name)
}

func hostnameOr(def string) string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
