package ldmsd

import (
	"bytes"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"goldms/internal/obs"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// syncBuf is a goroutine-safe log sink for daemon slog output.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// obsPipeline builds a virtual-clock aggregator pulling a raw served
// registry, configured through Exec so config commands land in the
// journal. The returned factory and server allow bouncing the target
// (ln.Close, then fac.Listen again).
func obsPipeline(t *testing.T, logBuf *syncBuf) (*Daemon, *sched.Scheduler, transport.MemFactory, *transport.Server, transport.Listener) {
	t.Helper()
	sch := sched.NewVirtual(time.Unix(50000, 0))
	net := transport.NewNetwork()
	fac := transport.MemFactory{Net: net}
	reg := benchRegistry(t, "n1", 2)
	srv := transport.NewServer(reg)
	ln, err := fac.Listen("n1", srv)
	if err != nil {
		t.Fatal(err)
	}

	opts := Options{
		Name:        "agg",
		Scheduler:   sch,
		Transports:  []transport.Factory{fac},
		JournalSize: 64,
	}
	if logBuf != nil {
		opts.Logger = slog.New(slog.NewJSONHandler(logBuf,
			&slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	agg, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agg.Stop)
	for _, cmd := range []string{
		"prdcr_add name=n1 xprt=mem host=n1 interval=1000000",
		"prdcr_start name=n1",
		"updtr_add name=u1 interval=1000000",
		"updtr_prdcr_add name=u1 prdcr=n1",
		"updtr_start name=u1",
	} {
		if _, err := agg.Exec(cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
	return agg, sch, fac, srv, ln
}

// TestObsJournalReconnectCycle drives a producer through a full
// connect/disconnect/reconnect cycle under the virtual clock and checks the
// journal recorded every transition in order with deterministic simulated
// timestamps, that the status commands surface the journal, and that every
// event drained to the structured log.
func TestObsJournalReconnectCycle(t *testing.T) {
	var logBuf syncBuf
	agg, sch, fac, srv, ln := obsPipeline(t, &logBuf)

	sch.AdvanceBy(3 * time.Second)
	if got := len(agg.Registry().Dir()); got != 2 {
		t.Fatalf("mirrors = %d, want 2", got)
	}

	// Bounce the target: pulls fail, the producer disconnects and retries.
	ln.Close()
	sch.AdvanceBy(3 * time.Second)
	if _, err := fac.Listen("n1", srv); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(3 * time.Second)

	j := agg.Journal()

	// The producer's lifecycle events, in seq order with the right epochs.
	var cycle []obs.Event
	for _, ev := range j.Query(0, obs.SevInfo, obs.CompProducer, "n1") {
		switch ev.Message {
		case "connected", "disconnected", "reconnected":
			cycle = append(cycle, ev)
		}
	}
	want := []struct {
		msg   string
		epoch uint64
		sev   obs.Severity
	}{
		{"connected", 1, obs.SevInfo},
		{"disconnected", 1, obs.SevWarn},
		{"reconnected", 2, obs.SevInfo},
	}
	if len(cycle) != len(want) {
		t.Fatalf("lifecycle events = %+v, want %d", cycle, len(want))
	}
	for i, w := range want {
		ev := cycle[i]
		if ev.Message != w.msg || ev.Epoch != w.epoch || ev.Sev != w.sev {
			t.Errorf("event %d = %+v, want %s epoch=%d sev=%v", i, ev, w.msg, w.epoch, w.sev)
		}
		if i > 0 && ev.Seq <= cycle[i-1].Seq {
			t.Errorf("event %d seq %d not after %d", i, ev.Seq, cycle[i-1].Seq)
		}
		// Timestamps come from the virtual clock, not the wall clock.
		if ev.Time.Before(time.Unix(50000, 0)) || ev.Time.After(time.Unix(50020, 0)) {
			t.Errorf("event %d time %v outside the simulated window", i, ev.Time)
		}
	}

	// Each connection epoch triggered one aggregate lookup event, which
	// also says how long the lookups took (nothing, on a virtual clock) and
	// that both sets were pulled and stored before the pass ended, on one
	// schema between them.
	lookups := 0
	for _, ev := range j.Query(0, obs.SevInfo, obs.CompUpdater, "n1") {
		if ev.Message == "u1 looked up 2 sets in 0s, 2 first samples in the same pass, 1 layouts, 1 shared" {
			lookups++
		}
	}
	if lookups != 2 {
		t.Errorf("aggregate lookup events = %d, want 2 (one per epoch)", lookups)
	}

	// Config commands were journaled too.
	cfg := j.Query(0, obs.SevInfo, obs.CompConfig, "")
	if len(cfg) < 5 {
		t.Errorf("config events = %d, want >= 5", len(cfg))
	}
	foundAdd := false
	for _, ev := range cfg {
		if strings.Contains(ev.Message, "prdcr_add") {
			foundAdd = true
		}
	}
	if !foundAdd {
		t.Errorf("no prdcr_add config event in %+v", cfg)
	}

	// Pull-hop latency recorded with deterministic virtual ages.
	hops := agg.Latency().Snapshot()
	if hops[0].Hop != obs.HopPull || hops[0].Count == 0 {
		t.Errorf("pull hop = %+v, want recorded samples", hops[0])
	}
	if hops[0].P50 <= 0 {
		t.Errorf("pull hop p50 = %v, want > 0", hops[0].P50)
	}

	// Status commands surface journal-derived fields.
	out, err := agg.Exec("prdcr_status")
	if err != nil {
		t.Fatal(err)
	}
	for _, wantS := range []string{"connected_since=1970-", `last_event="reconnected"`, "last_event_time=1970-"} {
		if !strings.Contains(out, wantS) {
			t.Errorf("prdcr_status missing %q:\n%s", wantS, out)
		}
	}
	out, err = agg.Exec("updtr_status")
	if err != nil {
		t.Fatal(err)
	}
	for _, wantS := range []string{"prdcr=n1", "connected_since=1970-", `last_event="reconnected"`} {
		if !strings.Contains(out, wantS) {
			t.Errorf("updtr_status missing %q:\n%s", wantS, out)
		}
	}

	// The events and latency control commands.
	out, err = agg.Exec("events n=50")
	if err != nil {
		t.Fatal(err)
	}
	for _, wantS := range []string{`msg="reconnected"`, "component=config", "sev=warn", "epoch=2"} {
		if !strings.Contains(out, wantS) {
			t.Errorf("events output missing %q:\n%s", wantS, out)
		}
	}
	out, err = agg.Exec("events severity=warn component=producer")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `msg="disconnected"`) || strings.Contains(out, `msg="connected"`) {
		t.Errorf("filtered events output wrong:\n%s", out)
	}
	out, err = agg.Exec("latency")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hop=pull count=") || !strings.Contains(out, "hop=store count=0") {
		t.Errorf("latency output wrong:\n%s", out)
	}

	// Every journal event drained to the structured log, plus the debug
	// line for failed connection attempts during the outage.
	logs := logBuf.String()
	for _, wantS := range []string{
		`"msg":"daemon started"`,
		`"msg":"connected"`,
		`"msg":"disconnected"`,
		`"msg":"reconnected"`,
		`"msg":"producer connect failed"`,
		`"component":"producer"`,
		`"epoch":2`,
	} {
		if !strings.Contains(logs, wantS) {
			t.Errorf("structured log missing %s", wantS)
		}
	}
}

// TestGatewayHealthzRecovery walks /healthz through a full outage cycle
// under the virtual clock: healthy after the first clean pull, degraded
// (503) while the target is down, and back to 200 after the producer
// reconnects and completes a clean pull.
func TestGatewayHealthzRecovery(t *testing.T) {
	agg, sch, fac, srv, ln := obsPipeline(t, nil)

	addr, err := agg.Exec("http_listen addr=127.0.0.1:0 window=1m")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	sch.AdvanceBy(3 * time.Second)
	code, body := httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz before outage: status %d: %s", code, body)
	}

	// Target dies: the pull fails, the producer disconnects, and after
	// staleIntervalFactor pull intervals without a clean pass the producer
	// is stale and the endpoint degrades.
	ln.Close()
	sch.AdvanceBy(6 * time.Second)
	code, body = httpGet(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during outage: status %d, want 503: %s", code, body)
	}
	if !strings.Contains(string(body), `"stale":["n1"]`) {
		t.Errorf("degraded healthz missing stale producer: %s", body)
	}

	// Target returns: reconnect, clean pull, healthy again.
	if _, err := fac.Listen("n1", srv); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(3 * time.Second)
	code, body = httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz after recovery: status %d: %s", code, body)
	}

	// The outage is readable from the gateway's event journal.
	code, body = httpGet(t, base+"/api/v1/events?component=producer")
	if code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	for _, want := range []string{`"disconnected"`, `"reconnected"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("events missing %s: %s", want, body)
		}
	}
}
