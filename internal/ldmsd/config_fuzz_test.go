package ldmsd

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// documentedCommands is an example of every command in the commands
// table, in an order that runs on one daemon — the fuzz seed corpus, and
// the lines TestCommandTable executes. Each runs as written there, except
// that the container path is a temp file and the advertised host is the
// daemon's own peers listener.
var documentedCommands = []string{
	"load name=meminfo",
	"config name=meminfo instance=agg/meminfo component_id=7 with_units=1",
	"start name=meminfo interval=1000000 offset=0 synchronous=1",
	"start name=meminfo interval=1s offset=20ms",
	"oneshot name=meminfo",
	"stop name=meminfo",
	"listen xprt=sock addr=127.0.0.1:0",
	"listen xprt=sock addr=127.0.0.1:0 peers=1",
	"advertise xprt=sock host=127.0.0.1:10444 interval=1s",
	"xprt_opt xprt=sock delta=0 dict=1 compress=0 rbuf=65536 wbuf=65536",
	"http_listen addr=127.0.0.1:0 window=10m points=1024 shards=2 pprof=1",
	"prdcr_add name=n1 xprt=mem host=n1 interval=1000000 standby=1",
	"prdcr_add name=pp type=passive",
	"prdcr_start name=n1",
	"prdcr_activate name=n1",
	"prdcr_deactivate name=n1",
	"prdcr_stop name=n1",
	"prdcr_status",
	"updtr_add name=u1 interval=1s offset=0 synchronous=1 concurrency=4 batch=32 reduce=avg,max export=raw",
	"updtr_prdcr_add name=u1 prdcr=n1",
	"updtr_match_add name=u1 match=meminfo",
	"updtr_start name=u1",
	"updtr_stop name=u1",
	"updtr_prdcr_del name=u1 prdcr=n1",
	"updtr_status",
	"strgp_add name=s1 plugin=store_csv schema=meminfo container=/tmp/out.csv queue=1024 batch=64 flush_interval=1s overflow=drop-oldest",
	"strgp_metric_add name=s1 metric=MemFree,MemTotal",
	"strgp_start name=s1",
	"strgp_status",
	"dir",
	"ls name=agg/meminfo",
	"stats",
	"usage",
	"events n=16 severity=warn component=producer subject=n1",
	"latency",
	"trace chains=1",
}

// TestParseCommandDocumentedCorpus pins the seed corpus: every
// documented command parses, keeps its command word, and round-trips
// its arguments.
func TestParseCommandDocumentedCorpus(t *testing.T) {
	for _, line := range documentedCommands {
		cmd, args, err := parseCommand(line)
		if err != nil {
			t.Errorf("parseCommand(%q): %v", line, err)
			continue
		}
		if cmd != strings.Fields(line)[0] {
			t.Errorf("parseCommand(%q) cmd = %q", line, cmd)
		}
		for k, v := range args {
			if !strings.Contains(line, k+"="+v) {
				t.Errorf("parseCommand(%q): arg %q=%q not from input", line, k, v)
			}
		}
	}
}

// FuzzParseCommand fuzzes the runtime config-command parser and the
// interval grammar it feeds. The parser is pure (no daemon state, no
// I/O), so the fuzz target checks structural invariants rather than
// behaviour: no panics, command words echo the input, keys are
// non-empty and '='-free, and accepted argument text round-trips.
func FuzzParseCommand(f *testing.F) {
	for _, line := range documentedCommands {
		f.Add(line)
	}
	// Hostile shapes: empty, whitespace soup, bare '=', repeated keys,
	// huge fields, invalid UTF-8, embedded NULs and newlines.
	f.Add("")
	f.Add("   \t  ")
	f.Add("cmd =")
	f.Add("cmd =v")
	f.Add("cmd k=")
	f.Add("cmd k==v=")
	f.Add("cmd k=v k=w")
	f.Add("cmd " + strings.Repeat("k=v ", 512))
	f.Add("cmd k=\xff\xfe")
	f.Add("cmd\x00k=v")
	f.Add("cmd k=v\nprdcr_add name=evil")
	f.Add("start name=s interval=9223372036854775807")
	f.Add("start name=s interval=-1us")
	f.Add("start name=s interval=999999h999m")

	f.Fuzz(func(t *testing.T, line string) {
		cmd, args, err := parseCommand(line)
		if err != nil {
			return // rejected input carries no further guarantees
		}
		if strings.TrimSpace(line) == "" {
			if cmd != "" || len(args) != 0 {
				t.Fatalf("blank line parsed to %q %v", cmd, args)
			}
			return
		}
		if strings.ContainsAny(cmd, " \t\n\v\f\r") {
			t.Fatalf("command word %q contains whitespace", cmd)
		}
		if cmd != strings.Fields(line)[0] {
			t.Fatalf("command word %q does not match input %q", cmd, line)
		}
		for k, v := range args {
			if k == "" {
				t.Fatalf("empty argument key in %q", line)
			}
			if strings.Contains(k, "=") {
				t.Fatalf("argument key %q contains '='", k)
			}
			if utf8.ValidString(line) && !strings.Contains(line, k+"="+v) {
				t.Fatalf("argument %s=%s does not round-trip from %q", k, v, line)
			}
			// Feed the interval grammar exactly where Exec would.
			switch k {
			case "interval", "offset", "flush_interval", "window":
				if d, err := parseInterval(v); err == nil && d < 0 {
					// Negative intervals parse (Go durations allow them);
					// they must at least not wrap into a huge positive.
					if -d < 0 {
						t.Fatalf("parseInterval(%q) overflowed: %v", v, d)
					}
				}
			}
		}
	})
}
