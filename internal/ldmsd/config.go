package ldmsd

import (
	"fmt"
	"maps"
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
// interval=1000000", "prdcr_add name=...", ...), and returns its
// human-readable output. The commands, their keys and what each does are
// the commands table below; Exec enforces it.
func (d *Daemon) Exec(line string) (string, error) {
	name, args, err := parseCommand(line)
	if err != nil || name == "" {
		return "", err
	}
	c := lookupCommand(name)
	if c == nil {
		return "", fmt.Errorf("ldmsd: unknown command %q", name)
	}
	a, err := c.bind(args)
	if err != nil {
		return "", err
	}
	out, err := c.run(d, a)
	if a.err != nil {
		return "", a.err
	}
	if err == nil && c.mutates {
		// Config changes are journal events: they explain every later
		// producer/updater/store transition in the same timeline.
		d.journal.Appendf(obs.SevInfo, obs.CompConfig, args["name"], 0,
			"config: %s", strings.Join(strings.Fields(line), " "))
	}
	return out, err
}

// A command is one control command, declared once. Exec rejects a key the
// entry does not declare, reports the first missing required key, parses
// every declared key by its kind before run acts, and journals the line
// when the command mutates the daemon.
type command struct {
	name     string
	mutates  bool
	required []key // in the order the accepted list names them
	optional []key
	plugin   bool // undeclared keys pass through to the plugin
	summary  string
	run      func(*Daemon, *argv) (string, error)
}

// key declares one argument of a command and how its value parses.
type key struct {
	name  string
	kind  kind
	floor int // least value of a kindInt key
}

type kind uint8

const (
	kindStr   kind = iota
	kindDur        // microseconds or a Go duration
	kindInt        // a decimal integer no less than floor
	kindOnOff      // 1, true, 0 or false
)

func str(name string) key               { return key{name: name} }
func dur(name string) key               { return key{name: name, kind: kindDur} }
func minInt(name string, floor int) key { return key{name: name, kind: kindInt, floor: floor} }
func onOff(name string) key             { return key{name: name, kind: kindOnOff} }

// commands is the control command set, and its reference: each entry's
// keys, kinds and summary are what the command accepts and does.
var commands = []command{
	{name: "load", mutates: true, summary: "declare a sampler plugin",
		required: []key{str("name")}, run: (*Daemon).cmdLoad},
	{name: "config", mutates: true, plugin: true, summary: "set a loaded plugin's instance, component ID and plugin options (producer= is accepted for compatibility)",
		required: []key{str("name")}, optional: []key{str("instance"), minInt("component_id", 0), str("producer")}, run: (*Daemon).cmdConfig},
	{name: "start", mutates: true, summary: "sample a plugin every interval, aligned to the wall clock when synchronous",
		required: []key{str("name"), dur("interval")}, optional: []key{dur("offset"), onOff("synchronous")}, run: (*Daemon).cmdStart},
	{name: "stop", mutates: true, summary: "stop sampling a plugin",
		required: []key{str("name")}, run: onSampler(func(sp *SamplerPolicy, _ time.Time) error { sp.Stop(); return nil })},
	{name: "oneshot", mutates: true, summary: "take one sample now",
		required: []key{str("name")}, run: onSampler((*SamplerPolicy).SampleOnce)},
	{name: "listen", mutates: true, summary: "serve sets on a transport; peers=1 accepts advertising samplers instead",
		required: []key{str("xprt"), str("addr")}, optional: []key{onOff("peers")}, run: (*Daemon).cmdListen},
	{name: "xprt_opt", mutates: true, summary: "tune the sock transport (xprt=sock only): capabilities and buffers for listeners and producers created afterward",
		optional: []key{str("xprt"), onOff("delta"), onOff("dict"), onOff("compress"), minInt("rbuf", 0), minInt("wbuf", 0)}, run: (*Daemon).cmdXprtOpt},
	{name: "http_listen", mutates: true, summary: "start the query & observability gateway (window=0 disables the recent window)",
		required: []key{str("addr")}, optional: []key{dur("window"), minInt("points", 1), minInt("shards", 1), onOff("pprof")}, run: (*Daemon).cmdHTTPListen},
	{name: "advertise", mutates: true, summary: "dial an aggregator's peers listener and offer this daemon's sets",
		required: []key{str("xprt"), str("host")}, optional: []key{dur("interval")}, run: (*Daemon).cmdAdvertise},
	{name: "prdcr_add", mutates: true, summary: "add a producer to pull from (type=passive waits for it to advertise)",
		required: []key{str("name")}, optional: []key{str("xprt"), str("host"), dur("interval"), onOff("standby"), str("type")}, run: (*Daemon).cmdPrdcrAdd},
	{name: "prdcr_start", mutates: true, summary: "connect to a producer and keep reconnecting",
		required: []key{str("name")}, run: onProducer((*Producer).Start)},
	{name: "prdcr_stop", mutates: true, summary: "disconnect a producer",
		required: []key{str("name")}, run: onProducer((*Producer).Stop)},
	{name: "prdcr_activate", mutates: true, summary: "failover: begin pulling a standby producer",
		required: []key{str("name")}, run: onProducer((*Producer).Activate)},
	{name: "prdcr_deactivate", mutates: true, summary: "failover: stop pulling a standby producer",
		required: []key{str("name")}, run: onProducer((*Producer).Deactivate)},
	{name: "prdcr_status", summary: "per-producer connection and transfer counters", run: (*Daemon).cmdPrdcrStatus},
	{name: "updtr_add", mutates: true, summary: "add an updater; reduce=<op>[,<op>...] folds each producer group into <op> sets, export=raw|reduced keeps or drops the raw sets",
		required: []key{str("name"), dur("interval")}, optional: []key{dur("offset"), onOff("synchronous"), minInt("concurrency", 0), minInt("batch", 1), str("reduce"), str("export")}, run: (*Daemon).cmdUpdtrAdd},
	{name: "updtr_prdcr_add", mutates: true, summary: "pull a producer's sets with an updater",
		required: []key{str("name"), str("prdcr")}, run: onUpdater(func(u *Updater, a *argv) error { return u.AddProducer(a.str("prdcr")) })},
	{name: "updtr_prdcr_del", mutates: true, summary: "drop a producer from an updater, with its mirrors",
		required: []key{str("name"), str("prdcr")}, run: onUpdater(func(u *Updater, a *argv) error { u.RemoveProducer(a.str("prdcr")); return nil })},
	{name: "updtr_match_add", mutates: true, summary: "pull only the sets whose instance name contains match",
		required: []key{str("name"), str("match")}, run: onUpdater(func(u *Updater, a *argv) error {
			match := a.str("match")
			u.SetMatch(func(instance string) bool { return strings.Contains(instance, match) })
			return nil
		})},
	{name: "updtr_start", mutates: true, summary: "arm an updater's schedule",
		required: []key{str("name")}, run: onUpdater(func(u *Updater, _ *argv) error { return u.Start() })},
	{name: "updtr_stop", mutates: true, summary: "cancel an updater's schedule",
		required: []key{str("name")}, run: onUpdater(func(u *Updater, _ *argv) error { u.Stop(); return nil })},
	{name: "updtr_status", summary: "per-updater pull-path counters", run: (*Daemon).cmdUpdtrStatus},
	{name: "strgp_add", mutates: true, plugin: true, summary: "store a schema's rows; queue=, batch=, flush_interval=, overflow=drop-oldest|block and plugin options pass through",
		required: []key{str("name"), str("plugin"), str("schema"), str("container")}, run: (*Daemon).cmdStrgpAdd},
	{name: "strgp_metric_add", mutates: true, summary: "store only the listed metrics (comma-separated)",
		required: []key{str("name"), str("metric")}, run: (*Daemon).cmdStrgpMetricAdd},
	{name: "strgp_start", mutates: true, summary: "accepted; stores start lazily",
		required: []key{str("name")}, run: (*Daemon).cmdStrgpStart},
	{name: "strgp_status", summary: "per-policy queue, batch and drop counters and errors", run: (*Daemon).cmdStrgpStatus},
	{name: "dir", summary: "list local sets", run: (*Daemon).cmdDir},
	{name: "ls", summary: "ldms_ls-style listing: set names, or one set's metrics",
		optional: []key{str("name")}, run: (*Daemon).cmdLs},
	{name: "stats", summary: "activity counters", run: (*Daemon).cmdStats},
	{name: "usage", summary: "set memory footprint", run: (*Daemon).cmdUsage},
	{name: "events", summary: "recent event journal entries (severity=info|warn|error)",
		optional: []key{minInt("n", 0), str("severity"), str("component"), str("subject")}, run: (*Daemon).cmdEvents},
	{name: "latency", summary: "per-hop sample-age histogram summary", run: (*Daemon).cmdLatency},
	{name: "trace", summary: "cross-tier span summary per hop daemon, role and stage; chains=1 lists every set's hop chain",
		optional: []key{onOff("chains")}, run: (*Daemon).cmdTrace},
}

func lookupCommand(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// keys lists the entry's keys, required first, in the order the unknown-key
// error names them.
func (c *command) keys() []key {
	return append(append([]key(nil), c.required...), c.optional...)
}

func (c *command) key(name string) (key, bool) {
	for _, k := range c.keys() {
		if k.name == name {
			return k, true
		}
	}
	return key{}, false
}

// bind checks args against the entry and parses every declared key. An
// empty value counts as absent.
func (c *command) bind(args map[string]string) (*argv, error) {
	a := &argv{cmd: c, vals: make(map[string]any), extra: make(map[string]string)}
	given := make([]string, 0, len(args))
	for k := range args {
		given = append(given, k)
	}
	sort.Strings(given)
	for _, k := range given {
		if _, ok := c.key(k); ok {
			continue
		}
		if !c.plugin {
			var accepted []string
			for _, k := range c.keys() {
				accepted = append(accepted, k.name)
			}
			return nil, fmt.Errorf("ldmsd: %s: unknown key %q (accepted: %s)", c.name, k, strings.Join(accepted, ", "))
		}
		a.extra[k] = args[k]
	}
	for i, k := range c.keys() {
		v := args[k.name]
		if v == "" {
			if i < len(c.required) {
				return nil, fmt.Errorf("ldmsd: %s requires %s=", c.name, k.name)
			}
			continue
		}
		p, err := k.parse(v)
		if err != nil {
			return nil, err
		}
		a.vals[k.name] = p
	}
	return a, nil
}

func (k key) parse(v string) (any, error) {
	switch k.kind {
	case kindDur:
		d, err := parseInterval(v)
		if err != nil {
			return nil, fmt.Errorf("ldmsd: bad %s %q", k.name, v)
		}
		return d, nil
	case kindInt:
		n, err := strconv.Atoi(v)
		if err != nil || n < k.floor {
			return nil, fmt.Errorf("ldmsd: bad %s %q", k.name, v)
		}
		return n, nil
	case kindOnOff:
		return parseOnOff(k.name, v)
	}
	return v, nil
}

// parseOnOff is the one on/off grammar of every command key.
func parseOnOff(key, s string) (bool, error) {
	switch s {
	case "1", "true":
		return true, nil
	case "0", "false":
		return false, nil
	}
	return false, fmt.Errorf("ldmsd: bad %s %q (want 1, true, 0 or false)", key, s)
}

// argv is one command line's arguments, checked and parsed against its
// table entry. Handlers read them only through the typed accessors.
type argv struct {
	cmd   *command
	vals  map[string]any    // declared keys given a value, parsed
	extra map[string]string // undeclared keys of a plugin command
	err   error             // the first read of an undeclared key
}

// get returns the named key's parsed value, nil when absent. Reading a key
// the entry does not declare, or as another kind, fails the command.
func (a *argv) get(name string, want kind) any {
	if k, ok := a.cmd.key(name); !ok || k.kind != want {
		if a.err == nil {
			a.err = fmt.Errorf("ldmsd: %s: handler reads undeclared key %q", a.cmd.name, name)
		}
		return nil
	}
	return a.vals[name]
}

func (a *argv) str(name string) string {
	s, _ := a.get(name, kindStr).(string)
	return s
}

func (a *argv) dur(name string) time.Duration {
	d, _ := a.get(name, kindDur).(time.Duration)
	return d
}

// num returns the named integer key, or def when it is absent.
func (a *argv) num(name string, def int) int {
	if n, ok := a.get(name, kindInt).(int); ok {
		return n
	}
	return def
}

func (a *argv) on(name string) bool {
	v, _ := a.get(name, kindOnOff).(bool)
	return v
}

// onProducer is the handler of a command that applies f to the producer
// its name= names.
func onProducer(f func(*Producer)) func(*Daemon, *argv) (string, error) {
	return func(d *Daemon, a *argv) (string, error) {
		p := d.Producer(a.str("name"))
		if p == nil {
			return "", fmt.Errorf("ldmsd %s: no producer %q", d.name, a.str("name"))
		}
		f(p)
		return "", nil
	}
}

// onUpdater is the handler of a command that applies f to the updater its
// name= names.
func onUpdater(f func(*Updater, *argv) error) func(*Daemon, *argv) (string, error) {
	return func(d *Daemon, a *argv) (string, error) {
		u := d.Updater(a.str("name"))
		if u == nil {
			return "", fmt.Errorf("ldmsd %s: no updater %q", d.name, a.str("name"))
		}
		return "", f(u, a)
	}
}

// onSampler is the handler of a command that applies f to the running
// sampler its name= names.
func onSampler(f func(*SamplerPolicy, time.Time) error) func(*Daemon, *argv) (string, error) {
	return func(d *Daemon, a *argv) (string, error) {
		sp := d.Sampler(a.str("name"))
		if sp == nil {
			return "", fmt.Errorf("ldmsd %s: plugin %q not running", d.name, a.str("name"))
		}
		return "", f(sp, d.sch.Now())
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

func (d *Daemon) cmdLoad(a *argv) (string, error) {
	name := a.str("name")
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.samplers[name]; dup {
		return "", fmt.Errorf("ldmsd %s: plugin %q already loaded", d.name, name)
	}
	if d.pending == nil {
		d.pending = make(map[string]*pendingPlugin)
	}
	if d.pending[name] == nil {
		d.pending[name] = &pendingPlugin{compID: d.compID, options: make(map[string]string)}
	}
	return "", nil
}

// cmdConfig applies a config line whole: bind has parsed every key, so a
// bad one has already failed the command before anything changes.
func (d *Daemon) cmdConfig(a *argv) (string, error) {
	name, instance, compID := a.str("name"), a.str("instance"), a.num("component_id", -1)
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.pending[name]
	if p == nil {
		return "", fmt.Errorf("ldmsd %s: plugin %q not loaded", d.name, name)
	}
	if instance != "" {
		p.instance = instance
	}
	if compID >= 0 {
		p.compID = uint64(compID)
	}
	maps.Copy(p.options, a.extra)
	return "", nil
}

func (d *Daemon) cmdStart(a *argv) (string, error) {
	name, interval, offset, synchronous := a.str("name"), a.dur("interval"), a.dur("offset"), a.on("synchronous")
	if interval <= 0 {
		return "", fmt.Errorf("ldmsd: start requires a positive interval")
	}
	sp := d.Sampler(name)
	if sp == nil {
		d.mu.Lock()
		pend := d.pending[name]
		d.mu.Unlock()
		if pend == nil {
			return "", fmt.Errorf("ldmsd %s: plugin %q not loaded", d.name, name)
		}
		var err error
		if sp, err = d.loadSamplerComp(name, pend.instance, pend.compID, pend.options); err != nil {
			return "", err
		}
	}
	sp.Start(interval, offset, synchronous)
	return "", nil
}

func (d *Daemon) cmdListen(a *argv) (string, error) {
	if a.on("peers") {
		return d.ListenForProducers(a.str("xprt"), a.str("addr"))
	}
	return d.Listen(a.str("xprt"), a.str("addr"))
}

// cmdXprtOpt tunes the sock transport factory: capability masks
// (delta/dict/compress toggle individually) and per-connection read/write
// buffer sizes. The tuned factory replaces the registered one: new listeners
// use it immediately, and producers re-resolve it on every connect attempt,
// so a prdcr_stop/prdcr_start cycle (or any reconnect) renegotiates under
// the new settings. Live connections keep what they negotiated. Any error
// leaves the factory as it was.
func (d *Daemon) cmdXprtOpt(a *argv) (string, error) {
	if x := a.str("xprt"); x != "" && x != "sock" {
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
		if v, ok := a.get(opt.key, kindOnOff).(bool); ok {
			*opt.mask = !v
		}
	}
	sf.ReadBuf = a.num("rbuf", sf.ReadBuf)
	sf.WriteBuf = a.num("wbuf", sf.WriteBuf)
	d.transports["sock"] = sf
	return "", nil
}

// cmdHTTPListen starts the query & observability gateway.
func (d *Daemon) cmdHTTPListen(a *argv) (string, error) {
	cfg := GatewayConfig{
		Addr:   a.str("addr"),
		Points: a.num("points", 0),
		Shards: a.num("shards", 0),
		PProf:  a.on("pprof"),
	}
	if w, ok := a.get("window", kindDur).(time.Duration); ok {
		if w == 0 {
			w = -1 // window=0 disables the recent-window cache
		}
		cfg.Window = w
	}
	return d.ServeHTTP(cfg)
}

// cmdPrdcrStatus renders per-producer connection state and transfer
// counters: one line per producer in name order. Each line carries the
// daemon's tier role and the producer's mirrored-set count so a topology
// consumer (ldms-top) can render fan-in depth from status output alone.
func (d *Daemon) cmdPrdcrStatus(*argv) (string, error) {
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

func (d *Daemon) cmdAdvertise(a *argv) (string, error) {
	adv, err := d.Advertise(a.str("xprt"), a.str("host"), a.dur("interval"))
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.advs = append(d.advs, adv)
	d.mu.Unlock()
	return "", nil
}

func (d *Daemon) cmdPrdcrAdd(a *argv) (string, error) {
	name, xprt, host := a.str("name"), a.str("xprt"), a.str("host")
	interval, standby := a.dur("interval"), a.on("standby")
	if a.str("type") == "passive" {
		// The connection arrives from the sampler side (advertise).
		_, err := d.AddPassiveProducer(name)
		return "", err
	}
	if xprt == "" || host == "" {
		return "", fmt.Errorf("ldmsd: prdcr_add requires xprt= and host= (or type=passive)")
	}
	_, err := d.AddProducer(name, xprt, host, interval, standby)
	return "", err
}

func (d *Daemon) cmdUpdtrAdd(a *argv) (string, error) {
	name, interval, offset, synchronous := a.str("name"), a.dur("interval"), a.dur("offset"), a.on("synchronous")
	concurrency, batch := a.num("concurrency", -1), a.num("batch", 0)
	reduce, export := a.str("reduce"), a.str("export")
	if interval <= 0 {
		return "", fmt.Errorf("ldmsd: updtr_add requires a positive interval")
	}
	var reduceOps []tier.Op
	if reduce != "" {
		var err error
		if reduceOps, err = tier.ParseOps(reduce); err != nil {
			return "", fmt.Errorf("ldmsd: %w", err)
		}
	}
	exportRaw := true
	switch export {
	case "", "raw":
	case "reduced":
		exportRaw = false
	default:
		return "", fmt.Errorf("ldmsd: bad export %q (want raw or reduced)", export)
	}
	if export != "" && len(reduceOps) == 0 {
		return "", fmt.Errorf("ldmsd: export= requires reduce=")
	}
	u, err := d.AddUpdater(name, interval, offset, synchronous)
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

// cmdUpdtrStatus renders per-updater pull-path counters: one line per
// updater in name order.
func (d *Daemon) cmdUpdtrStatus(*argv) (string, error) {
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

func (d *Daemon) cmdStrgpAdd(a *argv) (string, error) {
	_, err := d.AddStoragePolicy(a.str("name"), a.str("plugin"), a.str("schema"), a.str("container"), a.extra)
	return "", err
}

// cmdStrgpStatus renders per-policy storage-pipeline state: one line per
// policy in name order, including the sticky failure (if any) so silently
// dropped rows are visible to operators.
func (d *Daemon) cmdStrgpStatus(*argv) (string, error) {
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

func (d *Daemon) cmdStrgpMetricAdd(a *argv) (string, error) {
	sp, err := d.namedStoragePolicy(a)
	if err != nil {
		return "", err
	}
	sp.mu.Lock()
	if sp.metricSel == nil {
		sp.metricSel = make(map[string]bool)
	}
	for _, name := range strings.Split(a.str("metric"), ",") {
		sp.metricSel[name] = true
	}
	sp.mu.Unlock()
	return "", nil
}

func (d *Daemon) cmdStrgpStart(a *argv) (string, error) {
	_, err := d.namedStoragePolicy(a)
	return "", err
}

func (d *Daemon) namedStoragePolicy(a *argv) (*StoragePolicy, error) {
	sp := d.StoragePolicy(a.str("name"))
	if sp == nil {
		return nil, fmt.Errorf("ldmsd %s: no storage policy %q", d.name, a.str("name"))
	}
	return sp, nil
}

func (d *Daemon) cmdDir(*argv) (string, error) {
	return strings.Join(d.reg.Dir(), "\n"), nil
}

func (d *Daemon) cmdUsage(*argv) (string, error) {
	st := d.arena.Stats()
	return fmt.Sprintf("set_memory: used=%d peak=%d budget=%d", st.InUse, st.Peak, st.Capacity), nil
}

// cmdLs renders sets ldms_ls style: names only, or metrics of one set.
func (d *Daemon) cmdLs(a *argv) (string, error) {
	name := a.str("name")
	if name == "" {
		return d.cmdDir(a)
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
func (d *Daemon) cmdEvents(a *argv) (string, error) {
	minSev := obs.SevInfo
	if v := a.str("severity"); v != "" {
		parsed, err := obs.ParseSeverity(v)
		if err != nil {
			return "", fmt.Errorf("ldmsd: %w", err)
		}
		minSev = parsed
	}
	events := d.journal.Query(a.num("n", 20), minSev, a.str("component"), a.str("subject"))
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
func (d *Daemon) cmdLatency(*argv) (string, error) {
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
func (d *Daemon) cmdTrace(a *argv) (string, error) {
	var lines []string
	for _, s := range d.Spans() {
		lines = append(lines, fmt.Sprintf(
			"daemon=%s role=%s stage=%s count=%d p50=%s p95=%s p99=%s max=%s",
			s.Daemon, s.Role, s.Stage, s.Count, s.P50, s.P95, s.P99, s.Max))
	}
	if a.on("chains") {
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
func (d *Daemon) cmdStats(*argv) (string, error) {
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
