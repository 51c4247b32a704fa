package ldmsd

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
	"goldms/internal/tier"
	"goldms/internal/transport"
)

// Exec interprets one ldmsd configuration command, in the style of the
// ldmsd_controller text protocol ("load name=meminfo", "start name=meminfo
// interval=1000000", "prdcr_add name=...", ...). It returns human-readable
// output. Intervals and offsets accept either plain microseconds (LDMS
// convention) or Go duration strings ("1s", "20s", "1m").
//
// Command set:
//
//	load name=<plugin>
//	config name=<plugin> [instance=<set>] [component_id=<n>] [k=v ...]
//	start name=<plugin> interval=<us|dur> [offset=<us|dur>] [synchronous=1]
//	stop name=<plugin>
//	oneshot name=<plugin>
//	listen xprt=<transport> addr=<addr>
//	xprt_opt xprt=sock [delta=0|1] [dict=0|1] [compress=0|1]
//	             [rbuf=<bytes>] [wbuf=<bytes>]
//	                             (tune the sock transport: capability masks
//	                             and per-connection buffer sizes; applies to
//	                             listeners and producers created afterward;
//	                             any other key is an error)
//	http_listen addr=<addr> [window=<dur>] [points=<n>] [shards=<n>]
//	             [pprof=1]
//	                             (query & observability gateway; any
//	                             other key is an error)
//	prdcr_add name=<p> xprt=<t> host=<addr> [interval=<us|dur>] [standby=1]
//	prdcr_start name=<p>
//	prdcr_stop name=<p>
//	prdcr_activate name=<p>      (failover: begin pulling a standby)
//	prdcr_deactivate name=<p>
//	prdcr_status                 (per-producer connection + transfer counters)
//	updtr_add name=<u> interval=<us|dur> [offset=<us|dur>] [synchronous=1]
//	             [concurrency=<n>] [batch=<n>]
//	             [reduce=<op>[,<op>...]] [export=raw|reduced]
//	                             (in-flight reduction: fold each producer
//	                             group's sets into synthetic <op> sets;
//	                             export=reduced publishes only the folds)
//	updtr_prdcr_add name=<u> prdcr=<p>
//	updtr_prdcr_del name=<u> prdcr=<p>
//	updtr_match_add name=<u> match=<substring>
//	updtr_start name=<u>
//	updtr_stop name=<u>
//	updtr_status                 (per-updater pull-path counters)
//	strgp_add name=<s> plugin=<store> schema=<schema> container=<path>
//	             [queue=<n>] [batch=<n>] [flush_interval=<us|dur>]
//	             [overflow=drop-oldest|block] [k=v ...]
//	strgp_metric_add name=<s> metric=<m>[,<m>...]
//	strgp_start name=<s>         (accepted; stores start lazily)
//	strgp_status                 (per-policy queue/batch/drop counters + errors)
//	dir                          (list local sets)
//	ls [name=<set>]              (ldms_ls-style listing)
//	stats                        (activity counters)
//	usage                        (memory footprint)
//	events [n=<count>] [severity=info|warn|error] [component=<c>] [subject=<s>]
//	                             (recent entries of the event journal)
//	latency                      (per-hop sample-age histogram summary)
//	trace [chains=1]             (cross-tier span summary per hop daemon/
//	                             role/stage; chains=1 additionally lists
//	                             every set's current hop chain)
func (d *Daemon) Exec(line string) (string, error) {
	cmd, args, err := parseCommand(line)
	if err != nil {
		return "", err
	}
	out, err := d.exec(cmd, args)
	if err == nil && mutatingCommands[cmd] {
		// Config changes are journal events: they explain every later
		// producer/updater/store transition in the same timeline.
		d.journal.Appendf(obs.SevInfo, obs.CompConfig, args["name"], 0,
			"config: %s", strings.Join(strings.Fields(line), " "))
	}
	return out, err
}

// mutatingCommands are the Exec commands that change daemon state and are
// therefore recorded in the event journal (read-only status commands are
// not).
var mutatingCommands = map[string]bool{
	"load": true, "config": true, "start": true, "stop": true,
	"oneshot": true, "listen": true, "http_listen": true, "advertise": true,
	"xprt_opt":  true,
	"prdcr_add": true, "prdcr_start": true, "prdcr_stop": true,
	"prdcr_activate": true, "prdcr_deactivate": true,
	"updtr_add": true, "updtr_prdcr_add": true, "updtr_prdcr_del": true,
	"updtr_match_add": true, "updtr_start": true, "updtr_stop": true,
	"strgp_add": true, "strgp_metric_add": true, "strgp_start": true,
}

func (d *Daemon) exec(cmd string, args map[string]string) (string, error) {
	switch cmd {
	case "":
		return "", nil
	case "load":
		return d.cmdLoad(args)
	case "config":
		return d.cmdConfig(args)
	case "start":
		return d.cmdStart(args)
	case "stop":
		return d.cmdStop(args)
	case "oneshot":
		return d.cmdOneshot(args)
	case "listen":
		return d.cmdListen(args)
	case "xprt_opt":
		return d.cmdXprtOpt(args)
	case "http_listen":
		return d.cmdHTTPListen(args)
	case "advertise":
		return d.cmdAdvertise(args)
	case "prdcr_add":
		return d.cmdPrdcrAdd(args)
	case "prdcr_start":
		return d.withProducer(args, func(p *Producer) { p.Start() })
	case "prdcr_stop":
		return d.withProducer(args, func(p *Producer) { p.Stop() })
	case "prdcr_activate":
		return d.withProducer(args, func(p *Producer) { p.Activate() })
	case "prdcr_deactivate":
		return d.withProducer(args, func(p *Producer) { p.Deactivate() })
	case "prdcr_status":
		return d.cmdPrdcrStatus()
	case "updtr_add":
		return d.cmdUpdtrAdd(args)
	case "updtr_prdcr_add":
		return d.cmdUpdtrPrdcrAdd(args)
	case "updtr_prdcr_del":
		return d.cmdUpdtrPrdcrDel(args)
	case "updtr_status":
		return d.cmdUpdtrStatus()
	case "updtr_match_add":
		return d.cmdUpdtrMatchAdd(args)
	case "updtr_start":
		u, err := d.needUpdater(args)
		if err != nil {
			return "", err
		}
		return "", u.Start()
	case "updtr_stop":
		u, err := d.needUpdater(args)
		if err != nil {
			return "", err
		}
		u.Stop()
		return "", nil
	case "strgp_add":
		return d.cmdStrgpAdd(args)
	case "strgp_status":
		return d.cmdStrgpStatus()
	case "strgp_metric_add":
		return d.cmdStrgpMetricAdd(args)
	case "strgp_start":
		if d.StoragePolicy(args["name"]) == nil {
			return "", fmt.Errorf("ldmsd %s: no storage policy %q", d.name, args["name"])
		}
		return "", nil
	case "dir":
		return strings.Join(d.reg.Dir(), "\n"), nil
	case "ls":
		return d.cmdLs(args)
	case "stats":
		return d.cmdStats()
	case "usage":
		st := d.arena.Stats()
		return fmt.Sprintf("set_memory: used=%d peak=%d budget=%d", st.InUse, st.Peak, st.Capacity), nil
	case "events":
		return d.cmdEvents(args)
	case "latency":
		return d.cmdLatency()
	case "trace":
		return d.cmdTrace(args)
	default:
		return "", fmt.Errorf("ldmsd: unknown command %q", cmd)
	}
}

// ExecScript runs a newline-separated command script, stopping at the
// first error. Lines beginning with '#' are comments.
func (d *Daemon) ExecScript(script string) (string, error) {
	var out strings.Builder
	for i, line := range strings.Split(script, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		res, err := d.Exec(line)
		if err != nil {
			return out.String(), fmt.Errorf("line %d (%q): %w", i+1, line, err)
		}
		if res != "" {
			out.WriteString(res)
			out.WriteString("\n")
		}
	}
	return out.String(), nil
}

// parseCommand splits "cmd k1=v1 k2=v2" into its parts.
func parseCommand(line string) (string, map[string]string, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return "", nil, nil
	}
	args := make(map[string]string, len(fields)-1)
	for _, f := range fields[1:] {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return "", nil, fmt.Errorf("ldmsd: malformed argument %q (want key=value)", f)
		}
		args[f[:eq]] = f[eq+1:]
	}
	return fields[0], args, nil
}

// parseInterval accepts microseconds or a Go duration string.
func parseInterval(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	if us, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Duration(us) * time.Microsecond, nil
	}
	return time.ParseDuration(s)
}

// pendingPlugin tracks load/config state before start instantiates the
// sampler.
type pendingPlugin struct {
	instance string
	compID   uint64
	options  map[string]string
}

// pending is lazily allocated on the daemon.
func (d *Daemon) pendingFor(name string) *pendingPlugin {
	if d.pending == nil {
		d.pending = make(map[string]*pendingPlugin)
	}
	p := d.pending[name]
	if p == nil {
		p = &pendingPlugin{compID: d.compID, options: make(map[string]string)}
		d.pending[name] = p
	}
	return p
}

func (d *Daemon) cmdLoad(args map[string]string) (string, error) {
	name := args["name"]
	if name == "" {
		return "", fmt.Errorf("ldmsd: load requires name=")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.samplers[name]; dup {
		return "", fmt.Errorf("ldmsd %s: plugin %q already loaded", d.name, name)
	}
	d.pendingFor(name)
	return "", nil
}

func (d *Daemon) cmdConfig(args map[string]string) (string, error) {
	name := args["name"]
	if name == "" {
		return "", fmt.Errorf("ldmsd: config requires name=")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pending == nil || d.pending[name] == nil {
		return "", fmt.Errorf("ldmsd %s: plugin %q not loaded", d.name, name)
	}
	p := d.pending[name]
	for k, v := range args {
		switch k {
		case "name":
		case "instance":
			p.instance = v
		case "component_id":
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return "", fmt.Errorf("ldmsd: bad component_id %q", v)
			}
			p.compID = id
		case "producer":
			// Accepted for compatibility; the instance name carries it.
		default:
			p.options[k] = v
		}
	}
	return "", nil
}

func (d *Daemon) cmdStart(args map[string]string) (string, error) {
	name := args["name"]
	if name == "" {
		return "", fmt.Errorf("ldmsd: start requires name=")
	}
	interval, err := parseInterval(args["interval"])
	if err != nil || interval <= 0 {
		return "", fmt.Errorf("ldmsd: start requires a positive interval")
	}
	offset, err := parseInterval(args["offset"])
	if err != nil {
		return "", err
	}
	_, synchronous := args["synchronous"]
	if v := args["synchronous"]; v == "0" {
		synchronous = false
	}

	sp := d.Sampler(name)
	if sp == nil {
		d.mu.Lock()
		pend := (*pendingPlugin)(nil)
		if d.pending != nil {
			pend = d.pending[name]
		}
		d.mu.Unlock()
		if pend == nil {
			return "", fmt.Errorf("ldmsd %s: plugin %q not loaded", d.name, name)
		}
		sp, err = d.loadSamplerComp(name, pend.instance, pend.compID, pend.options)
		if err != nil {
			return "", err
		}
	}
	sp.Start(interval, offset, synchronous)
	return "", nil
}

func (d *Daemon) cmdStop(args map[string]string) (string, error) {
	sp := d.Sampler(args["name"])
	if sp == nil {
		return "", fmt.Errorf("ldmsd %s: plugin %q not running", d.name, args["name"])
	}
	sp.Stop()
	return "", nil
}

func (d *Daemon) cmdOneshot(args map[string]string) (string, error) {
	sp := d.Sampler(args["name"])
	if sp == nil {
		return "", fmt.Errorf("ldmsd %s: plugin %q not running", d.name, args["name"])
	}
	return "", sp.SampleOnce(d.sch.Now())
}

func (d *Daemon) cmdListen(args map[string]string) (string, error) {
	xprt, addr := args["xprt"], args["addr"]
	if xprt == "" || addr == "" {
		return "", fmt.Errorf("ldmsd: listen requires xprt= and addr=")
	}
	if args["peers"] == "1" {
		return d.ListenForProducers(xprt, addr)
	}
	bound, err := d.Listen(xprt, addr)
	if err != nil {
		return "", err
	}
	return bound, nil
}

// xprtOptKeys are the keys xprt_opt accepts, in the order its error lists
// them.
var xprtOptKeys = []string{"xprt", "delta", "dict", "compress", "rbuf", "wbuf"}

// cmdXprtOpt tunes the sock transport factory: capability masks
// (delta/dict/compress toggle individually) and per-connection read/write
// buffer sizes. The tuned factory replaces the registered one: new listeners
// use it immediately, and producers re-resolve it on every connect attempt,
// so a prdcr_stop/prdcr_start cycle (or any reconnect) renegotiates under
// the new settings. Live connections keep what they negotiated. A key it
// does not know is an error, and any error leaves the factory as it was.
func (d *Daemon) cmdXprtOpt(args map[string]string) (string, error) {
	for k := range args {
		if !slices.Contains(xprtOptKeys, k) {
			return "", fmt.Errorf("ldmsd: xprt_opt: unknown key %q (accepted: %s)", k, strings.Join(xprtOptKeys, ", "))
		}
	}
	if x := args["xprt"]; x != "" && x != "sock" {
		return "", fmt.Errorf("ldmsd: xprt_opt supports xprt=sock only, got %q", x)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sf, _ := d.transports["sock"].(transport.SockFactory)
	for _, opt := range []struct {
		key  string
		mask *bool
	}{
		{"delta", &sf.NoDelta},
		{"dict", &sf.NoDict},
		{"compress", &sf.NoCompress},
	} {
		if v, ok, err := parseOnOff(opt.key, args); err != nil {
			return "", err
		} else if ok {
			*opt.mask = !v
		}
	}
	for _, opt := range []struct {
		key string
		dst *int
	}{
		{"rbuf", &sf.ReadBuf},
		{"wbuf", &sf.WriteBuf},
	} {
		if v := args[opt.key]; v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return "", fmt.Errorf("ldmsd: bad %s %q", opt.key, v)
			}
			*opt.dst = n
		}
	}
	d.transports["sock"] = sf
	return "", nil
}

// parseOnOff reads a 0/1 boolean option; ok is false when absent.
func parseOnOff(key string, args map[string]string) (v, ok bool, err error) {
	s, present := args[key]
	if !present || s == "" {
		return false, false, nil
	}
	switch s {
	case "1", "true":
		return true, true, nil
	case "0", "false":
		return false, true, nil
	}
	return false, false, fmt.Errorf("ldmsd: bad %s %q (want 0 or 1)", key, s)
}

// httpListenKeys are the keys http_listen accepts, in the order its error
// lists them.
var httpListenKeys = []string{"addr", "window", "points", "shards", "pprof"}

// cmdHTTPListen starts the query & observability gateway. A key it does
// not know is an error, and then nothing starts.
func (d *Daemon) cmdHTTPListen(args map[string]string) (string, error) {
	for k := range args {
		if !slices.Contains(httpListenKeys, k) {
			return "", fmt.Errorf("ldmsd: http_listen: unknown key %q (accepted: %s)", k, strings.Join(httpListenKeys, ", "))
		}
	}
	addr := args["addr"]
	if addr == "" {
		return "", fmt.Errorf("ldmsd: http_listen requires addr=")
	}
	cfg := GatewayConfig{
		Addr:  addr,
		PProf: args["pprof"] == "1",
	}
	if v := args["window"]; v != "" {
		w, err := parseInterval(v)
		if err != nil {
			return "", fmt.Errorf("ldmsd: bad window %q", v)
		}
		if w == 0 {
			w = -1 // window=0 disables the recent-window cache
		}
		cfg.Window = w
	}
	if v := args["points"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return "", fmt.Errorf("ldmsd: bad points %q", v)
		}
		cfg.Points = n
	}
	if v := args["shards"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return "", fmt.Errorf("ldmsd: bad shards %q", v)
		}
		cfg.Shards = n
	}
	return d.ServeHTTP(cfg)
}

// cmdPrdcrStatus renders per-producer connection state and transfer
// counters: one line per producer in name order. Each line carries the
// daemon's tier role and the producer's mirrored-set count so a topology
// consumer (ldms-top) can render fan-in depth from status output alone.
func (d *Daemon) cmdPrdcrStatus() (string, error) {
	d.mu.Lock()
	prdcrs := mapValues(d.prdcrs)
	d.mu.Unlock()
	role := d.TierRole()
	var lines []string
	for _, p := range prdcrs {
		c := p.Counters()
		line := fmt.Sprintf(
			"name=%s host=%s xprt=%s state=%s tier=%s sets=%d standby=%v active=%v connects=%d disconnects=%d connect_fails=%d bytes_in=%d bytes_out=%d msgs_in=%d msgs_out=%d batches=%d batched_ops=%d updates=%d delta_updates=%d bytes_per_sample=%.1f connected_since=%s",
			p.Name(), p.Host(), p.TransportName(), p.State(), role,
			d.mirroredSetCount(p.Name()), p.Standby(), p.Active(),
			c.Connects, c.Disconnects, c.ConnectFails,
			c.Transport.BytesIn, c.Transport.BytesOut,
			c.Transport.MsgsIn, c.Transport.MsgsOut,
			c.Transport.Batches, c.Transport.BatchedOps,
			c.Transport.Updates, c.Transport.DeltaUpdates,
			c.Transport.BytesPerSample(),
			timestampOrNever(d.producerConnectedSince(p)))
		if ev, ok := d.lastProducerEvent(p.Name()); ok {
			line += fmt.Sprintf(" last_event=%q last_event_time=%s",
				ev.Message, ev.Time.UTC().Format(time.RFC3339))
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n"), nil
}

// producerConnectedSince reports when the producer's current connection was
// established, sourced from the journal's connect/reconnect events; zero
// when the producer is not currently connected (or the event has already
// rotated out of the journal ring).
func (d *Daemon) producerConnectedSince(p *Producer) time.Time {
	if p.State() != ProducerConnected {
		return time.Time{}
	}
	ev, ok := d.journal.LastMatch(func(e obs.Event) bool {
		return e.Component == obs.CompProducer && e.Subject == p.Name() &&
			(e.Message == "connected" || e.Message == "reconnected")
	})
	if !ok {
		return time.Time{}
	}
	return ev.Time
}

// lastProducerEvent returns the producer's most recent journal event.
func (d *Daemon) lastProducerEvent(name string) (obs.Event, bool) {
	return d.journal.LastMatch(func(e obs.Event) bool {
		return e.Component == obs.CompProducer && e.Subject == name
	})
}

// timestampOrNever renders a status timestamp field.
func timestampOrNever(t time.Time) string {
	if t.IsZero() {
		return "never"
	}
	return t.UTC().Format(time.RFC3339)
}

func (d *Daemon) cmdAdvertise(args map[string]string) (string, error) {
	xprt, host := args["xprt"], args["host"]
	if xprt == "" || host == "" {
		return "", fmt.Errorf("ldmsd: advertise requires xprt= and host=")
	}
	interval, err := parseInterval(args["interval"])
	if err != nil {
		return "", err
	}
	a, err := d.Advertise(xprt, host, interval)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.advs = append(d.advs, a)
	d.mu.Unlock()
	return "", nil
}

func (d *Daemon) cmdPrdcrAdd(args map[string]string) (string, error) {
	name, xprt, host := args["name"], args["xprt"], args["host"]
	if name == "" {
		return "", fmt.Errorf("ldmsd: prdcr_add requires name=")
	}
	if args["type"] == "passive" {
		// The connection arrives from the sampler side (advertise).
		_, err := d.AddPassiveProducer(name)
		return "", err
	}
	if xprt == "" || host == "" {
		return "", fmt.Errorf("ldmsd: prdcr_add requires xprt= and host= (or type=passive)")
	}
	interval, err := parseInterval(args["interval"])
	if err != nil {
		return "", err
	}
	standby := args["standby"] == "1"
	_, err = d.AddProducer(name, xprt, host, interval, standby)
	return "", err
}

func (d *Daemon) withProducer(args map[string]string, f func(*Producer)) (string, error) {
	p := d.Producer(args["name"])
	if p == nil {
		return "", fmt.Errorf("ldmsd %s: no producer %q", d.name, args["name"])
	}
	f(p)
	return "", nil
}

func (d *Daemon) cmdUpdtrAdd(args map[string]string) (string, error) {
	name := args["name"]
	if name == "" {
		return "", fmt.Errorf("ldmsd: updtr_add requires name=")
	}
	interval, err := parseInterval(args["interval"])
	if err != nil || interval <= 0 {
		return "", fmt.Errorf("ldmsd: updtr_add requires a positive interval")
	}
	offset, err := parseInterval(args["offset"])
	if err != nil {
		return "", err
	}
	concurrency, batch := -1, -1
	if v := args["concurrency"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return "", fmt.Errorf("ldmsd: bad concurrency %q", v)
		}
		concurrency = n
	}
	if v := args["batch"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return "", fmt.Errorf("ldmsd: bad batch %q", v)
		}
		batch = n
	}
	var reduceOps []tier.Op
	if v := args["reduce"]; v != "" {
		reduceOps, err = tier.ParseOps(v)
		if err != nil {
			return "", fmt.Errorf("ldmsd: %w", err)
		}
	}
	exportRaw := true
	switch v := args["export"]; v {
	case "", "raw":
	case "reduced":
		exportRaw = false
	default:
		return "", fmt.Errorf("ldmsd: bad export %q (want raw or reduced)", v)
	}
	if args["export"] != "" && len(reduceOps) == 0 {
		return "", fmt.Errorf("ldmsd: export= requires reduce=")
	}
	u, err := d.AddUpdater(name, interval, offset, args["synchronous"] == "1")
	if err != nil {
		return "", err
	}
	if concurrency >= 0 {
		u.SetConcurrency(concurrency)
	}
	if batch >= 1 {
		u.SetBatch(batch)
	}
	if len(reduceOps) > 0 {
		if err := u.SetReduce(reduceOps, exportRaw); err != nil {
			return "", err
		}
	}
	return "", nil
}

func (d *Daemon) needUpdater(args map[string]string) (*Updater, error) {
	u := d.Updater(args["name"])
	if u == nil {
		return nil, fmt.Errorf("ldmsd %s: no updater %q", d.name, args["name"])
	}
	return u, nil
}

func (d *Daemon) cmdUpdtrPrdcrAdd(args map[string]string) (string, error) {
	u, err := d.needUpdater(args)
	if err != nil {
		return "", err
	}
	return "", u.AddProducer(args["prdcr"])
}

func (d *Daemon) cmdUpdtrPrdcrDel(args map[string]string) (string, error) {
	u, err := d.needUpdater(args)
	if err != nil {
		return "", err
	}
	if args["prdcr"] == "" {
		return "", fmt.Errorf("ldmsd: updtr_prdcr_del requires prdcr=")
	}
	u.RemoveProducer(args["prdcr"])
	return "", nil
}

// cmdUpdtrStatus renders per-updater pull-path counters: one line per
// updater in name order.
func (d *Daemon) cmdUpdtrStatus() (string, error) {
	d.mu.Lock()
	updtrs := mapValues(d.updtrs)
	d.mu.Unlock()
	var lines []string
	for _, u := range updtrs {
		u.mu.Lock()
		state := "stopped"
		if u.started {
			state = "running"
		}
		nprdcr := len(u.producers)
		conc := u.concurrency
		batch := u.batch
		interval := u.interval
		u.mu.Unlock()
		uline := fmt.Sprintf(
			"name=%s state=%s interval=%s producers=%d concurrency=%d batch=%d passes=%d inflight=%d last_pass_us=%d updates=%d skipped_busy=%d errors=%d mirror_nomem=%d mirror_badmeta=%d",
			u.name, state, interval, nprdcr, conc, batch,
			u.passes.Load(), u.inflight.Load(), u.lastPassNanos.Load()/1000,
			u.updates.Load(), u.skippedBusy.Load(), u.errors.Load(),
			u.mirrorNomem.Load(), u.mirrorBadmeta.Load())
		if ops, exportRaw, rst, enabled := u.ReduceStatus(); enabled {
			exp := "raw"
			if !exportRaw {
				exp = "reduced"
			}
			uline += fmt.Sprintf(
				" reduce=%s export=%s reduce_groups=%d reduce_members=%d reduce_sets=%d folds=%d published=%d",
				ops, exp, rst.Groups, rst.Members, rst.Outputs, rst.Folds, rst.Published)
		}
		lines = append(lines, uline)
		for _, ph := range u.PullHealth() {
			line := fmt.Sprintf(
				"  prdcr=%s sets=%d unmirrored=%d last_update=%s consec_errors=%d",
				ph.Producer, u.MirroredSets(ph.Producer), ph.Unmirrored,
				timestampOrNever(ph.LastSuccess), ph.ConsecErrors)
			if p := d.Producer(ph.Producer); p != nil {
				line += " connected_since=" + timestampOrNever(d.producerConnectedSince(p))
			}
			if ev, ok := d.lastProducerEvent(ph.Producer); ok {
				line += fmt.Sprintf(" last_event=%q", ev.Message)
			}
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n"), nil
}

func (d *Daemon) cmdUpdtrMatchAdd(args map[string]string) (string, error) {
	u, err := d.needUpdater(args)
	if err != nil {
		return "", err
	}
	match := args["match"]
	if match == "" {
		return "", fmt.Errorf("ldmsd: updtr_match_add requires match=")
	}
	u.SetMatch(func(instance string) bool {
		return strings.Contains(instance, match)
	})
	return "", nil
}

func (d *Daemon) cmdStrgpAdd(args map[string]string) (string, error) {
	name, plugin := args["name"], args["plugin"]
	schema, container := args["schema"], args["container"]
	if name == "" || plugin == "" || schema == "" || container == "" {
		return "", fmt.Errorf("ldmsd: strgp_add requires name=, plugin=, schema= and container=")
	}
	options := make(map[string]string)
	for k, v := range args {
		switch k {
		case "name", "plugin", "schema", "container":
		default:
			options[k] = v
		}
	}
	_, err := d.AddStoragePolicy(name, plugin, schema, container, options)
	return "", err
}

// cmdStrgpStatus renders per-policy storage-pipeline state: one line per
// policy in name order, including the sticky failure (if any) so silently
// dropped rows are visible to operators.
func (d *Daemon) cmdStrgpStatus() (string, error) {
	d.mu.Lock()
	strgps := mapValues(d.strgps)
	d.mu.Unlock()
	var lines []string
	for _, sp := range strgps {
		c := sp.Counters()
		state := "running"
		if c.Failed {
			state = "failed"
		}
		overflow := "drop-oldest"
		if !sp.dropOldest {
			overflow = "block"
		}
		line := fmt.Sprintf(
			"name=%s plugin=%s schema=%s state=%s rows=%d enqueued=%d dropped=%d batches=%d queue=%d/%d queue_peak=%d batch_max=%d overflow=%s flush_interval=%s flushes=%d store_us=%d flush_us=%d",
			sp.Name(), sp.Plugin(), sp.Schema(), state,
			c.Rows, c.Enqueued, c.Dropped, c.Batches,
			c.QueueDepth, c.QueueCap, c.QueuePeak, sp.batchMax, overflow, sp.flushEvery,
			c.Flushes, c.StoreNanos/1000, c.FlushNanos/1000)
		if err := sp.Err(); err != nil {
			line += fmt.Sprintf(" err=%q", err.Error())
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n"), nil
}

func (d *Daemon) cmdStrgpMetricAdd(args map[string]string) (string, error) {
	sp := d.StoragePolicy(args["name"])
	if sp == nil {
		return "", fmt.Errorf("ldmsd %s: no storage policy %q", d.name, args["name"])
	}
	m := args["metric"]
	if m == "" {
		return "", fmt.Errorf("ldmsd: strgp_metric_add requires metric=")
	}
	sp.mu.Lock()
	if sp.metricSel == nil {
		sp.metricSel = make(map[string]bool)
	}
	for _, name := range strings.Split(m, ",") {
		sp.metricSel[name] = true
	}
	sp.mu.Unlock()
	return "", nil
}

// cmdLs renders sets ldms_ls style: names only, or metrics of one set.
func (d *Daemon) cmdLs(args map[string]string) (string, error) {
	name := args["name"]
	if name == "" {
		return strings.Join(d.reg.Dir(), "\n"), nil
	}
	set := d.reg.Get(name)
	if set == nil {
		return "", fmt.Errorf("ldmsd %s: no set %q", d.name, name)
	}
	var b strings.Builder
	// One ReadValues snapshot instead of per-metric reads: a listing
	// racing a sampler transaction must not interleave old and new rows.
	vals := make([]metric.Value, set.Card())
	ts, _, consistent, _ := set.ReadValues(vals)
	cons := "inconsistent"
	if consistent {
		cons = "consistent"
	}
	fmt.Fprintf(&b, "%s: %s, last update: %s [%s]\n",
		set.Name(), set.SchemaName(), ts.UTC().Format(time.RFC3339), cons)
	for i, v := range vals {
		fmt.Fprintf(&b, " %c %-10s %-40s %s\n",
			typeTag(set.MetricType(i)), set.MetricType(i), set.MetricName(i), v)
	}
	return b.String(), nil
}

// typeTag mirrors the U/D markers in ldms_ls output.
func typeTag(t interface{ String() string }) byte {
	s := t.String()
	if len(s) > 0 && (s[0] == 'd' || s[0] == 'f') {
		return 'D'
	}
	return 'U'
}

// cmdEvents renders the event journal, oldest first: one line per event
// with key=value fields matching the other status commands.
func (d *Daemon) cmdEvents(args map[string]string) (string, error) {
	n := 20
	if v := args["n"]; v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			return "", fmt.Errorf("ldmsd: bad n %q", v)
		}
		n = parsed
	}
	minSev := obs.SevInfo
	if v := args["severity"]; v != "" {
		parsed, err := obs.ParseSeverity(v)
		if err != nil {
			return "", fmt.Errorf("ldmsd: %w", err)
		}
		minSev = parsed
	}
	events := d.journal.Query(n, minSev, args["component"], args["subject"])
	lines := make([]string, 0, len(events))
	for _, ev := range events {
		line := fmt.Sprintf("seq=%d time=%s sev=%s component=%s",
			ev.Seq, ev.Time.UTC().Format(time.RFC3339), ev.Sev, ev.Component)
		if ev.Subject != "" {
			line += " subject=" + ev.Subject
		}
		if ev.Epoch != 0 {
			line += fmt.Sprintf(" epoch=%d", ev.Epoch)
		}
		line += fmt.Sprintf(" msg=%q", ev.Message)
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n"), nil
}

// cmdLatency renders the per-hop sample-age histograms: how old samples
// were when they completed the pull, entered the recent window, and
// reached the store plugin.
func (d *Daemon) cmdLatency() (string, error) {
	var lines []string
	for _, h := range d.lat.Snapshot() {
		lines = append(lines, fmt.Sprintf(
			"hop=%s count=%d p50=%s p95=%s p99=%s max=%s",
			h.Hop, h.Count, h.P50, h.P95, h.P99, h.Max))
	}
	return strings.Join(lines, "\n"), nil
}

// cmdTrace renders the cross-tier span summaries: sample age per hop
// daemon, tier role, and pipeline stage, covering this daemon and every
// traced hop below it. chains=1 additionally lists each published set's
// current hop chain, origin hop first.
func (d *Daemon) cmdTrace(args map[string]string) (string, error) {
	var lines []string
	for _, s := range d.Spans() {
		lines = append(lines, fmt.Sprintf(
			"daemon=%s role=%s stage=%s count=%d p50=%s p95=%s p99=%s max=%s",
			s.Daemon, s.Role, s.Stage, s.Count, s.P50, s.P95, s.P99, s.Max))
	}
	if args["chains"] == "1" {
		for _, c := range d.Chains() {
			var hops []string
			for _, h := range c.Hops {
				hops = append(hops, fmt.Sprintf("%s(%s)", h.Daemon, h.Role))
			}
			lines = append(lines, fmt.Sprintf("set=%s depth=%d chain=%s",
				c.Set, len(c.Hops), strings.Join(hops, "->")))
		}
	}
	return strings.Join(lines, "\n"), nil
}

// cmdStats renders the daemon activity counters.
func (d *Daemon) cmdStats() (string, error) {
	st := d.Stats()
	keys := []string{
		fmt.Sprintf("samples=%d", st.Samples),
		fmt.Sprintf("sample_errors=%d", st.SampleErrors),
		fmt.Sprintf("lookups=%d", st.Lookups),
		fmt.Sprintf("updates=%d", st.Updates),
		fmt.Sprintf("fresh=%d", st.UpdatesFresh),
		fmt.Sprintf("stale=%d", st.UpdatesStale),
		fmt.Sprintf("inconsistent=%d", st.UpdatesInconsistent),
		fmt.Sprintf("update_errors=%d", st.UpdateErrors),
		fmt.Sprintf("skipped_busy=%d", st.UpdatesSkippedBusy),
		fmt.Sprintf("stored_rows=%d", st.StoredRows),
		fmt.Sprintf("dropped_rows=%d", st.DroppedRows),
	}
	sort.Strings(keys)
	return strings.Join(keys, " "), nil
}
