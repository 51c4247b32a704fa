// Command ldms_ls lists the metric sets a running ldmsd serves, in the
// style of the LDMS ldms_ls utility: names only by default, full metric
// listings with -l.
//
// Usage:
//
//	ldms_ls -x sock -h 127.0.0.1:10444
//	ldms_ls -x sock -h 127.0.0.1:10444 -l nid00001/meminfo
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"goldms/internal/metric"
	"goldms/internal/transport"
)

func main() {
	var (
		xprt    = flag.String("x", "sock", "transport: sock, rdma, ugni")
		host    = flag.String("h", "127.0.0.1:10444", "host address")
		long    = flag.Bool("l", false, "print metric values for each listed set")
		timeout = flag.Duration("w", 5*time.Second, "operation timeout")
	)
	flag.Parse()

	var f transport.Factory
	switch *xprt {
	case "sock":
		f = transport.SockFactory{}
	case "rdma", "ugni":
		f = transport.RDMAFactory{Kind: *xprt}
	default:
		fmt.Fprintf(os.Stderr, "ldms_ls: unknown transport %q\n", *xprt)
		os.Exit(2)
	}
	conn, err := f.Dial(*host)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	names := flag.Args()
	if len(names) == 0 {
		if names, err = conn.Dir(ctx); err != nil {
			fatal(err)
		}
	}
	for _, name := range names {
		if !*long {
			fmt.Println(name)
			continue
		}
		rs, err := conn.Lookup(ctx, name)
		if err != nil {
			fatal(err)
		}
		mir, err := rs.Meta().NewMirror()
		if err != nil {
			fatal(err)
		}
		op := []transport.UpdateOp{{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}}
		if transport.UpdateAll(ctx, conn, op); op[0].Err != nil {
			fatal(op[0].Err)
		}
		if err := mir.LoadData(op[0].Dst); err != nil {
			fatal(err)
		}
		vals := make([]metric.Value, mir.Card())
		ts, _, consistent, _ := mir.ReadValues(vals)
		cons := "inconsistent"
		if consistent {
			cons = "consistent"
		}
		fmt.Printf("%s: %s, last update: %s [%s]\n",
			mir.Name(), mir.SchemaName(), ts.UTC().Format(time.RFC3339), cons)
		for i, v := range vals {
			fmt.Printf(" %-6s %-44s %s\n", mir.MetricType(i), mir.MetricName(i), v)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldms_ls:", err)
	os.Exit(1)
}
