package ldmsd

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/procfs"
	"goldms/internal/transport"
)

// realPipeline builds a real-clock sampler->aggregator pair over the mem
// transport, with the sampler resampling and the aggregator pulling every
// few milliseconds so gateway reads race live update passes.
func realPipeline(t *testing.T) (smp, agg *Daemon) {
	t.Helper()
	net := transport.NewNetwork()
	fac := transport.MemFactory{Net: net}

	smp, err := New(Options{
		Name:       "n1",
		FS:         procfs.NewSimFS(testNode("n1")),
		CompID:     7,
		Transports: []transport.Factory{fac},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(smp.Stop)
	if _, err := smp.Listen("mem", "n1"); err != nil {
		t.Fatal(err)
	}
	sp, err := smp.LoadSampler("meminfo", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp.Start(2*time.Millisecond, 0, false)

	agg, err = New(Options{Name: "agg1", Transports: []transport.Factory{fac}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agg.Stop)
	p, err := agg.AddProducer("n1", "mem", "n1", 10*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	u, err := agg.AddUpdater("u1", 3*time.Millisecond, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.AddProducer("n1"); err != nil {
		t.Fatal(err)
	}
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}
	return smp, agg
}

// httpGet fetches a gateway URL, returning status and body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestGatewayEndToEnd drives every gateway endpoint against a live
// aggregator started through the control interface's http_listen command.
func TestGatewayEndToEnd(t *testing.T) {
	_, agg := realPipeline(t)
	addr, err := agg.Exec("http_listen addr=127.0.0.1:0 window=1m points=256")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	waitUntil(t, 5*time.Second, func() bool {
		return agg.Registry().Get("n1/meminfo") != nil
	}, "mirror to appear")
	waitUntil(t, 5*time.Second, func() bool {
		w := agg.Window()
		return w != nil && w.Stats().Observed >= 3
	}, "window to fill")

	// A second gateway on the same daemon must be refused.
	if _, err := agg.Exec("http_listen addr=127.0.0.1:0"); err == nil {
		t.Error("second http_listen did not fail")
	}

	code, body := httpGet(t, base+"/api/v1/dir")
	if code != http.StatusOK {
		t.Fatalf("dir: status %d: %s", code, body)
	}
	var dir struct {
		Daemon string `json:"daemon"`
		Sets   []struct {
			Instance string `json:"instance"`
			Schema   string `json:"schema"`
			CompID   uint64 `json:"comp_id"`
		} `json:"sets"`
	}
	if err := json.Unmarshal(body, &dir); err != nil {
		t.Fatalf("dir: %v", err)
	}
	if dir.Daemon != "agg1" || len(dir.Sets) != 1 || dir.Sets[0].Instance != "n1/meminfo" || dir.Sets[0].CompID != 7 {
		t.Errorf("dir = %+v", dir)
	}

	code, body = httpGet(t, base+"/api/v1/sets/n1/meminfo")
	if code != http.StatusOK {
		t.Fatalf("set: status %d: %s", code, body)
	}
	var set struct {
		Instance   string `json:"instance"`
		Consistent bool   `json:"consistent"`
		Metrics    []struct {
			Name  string `json:"name"`
			Value any    `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(body, &set); err != nil {
		t.Fatalf("set: %v", err)
	}
	if set.Instance != "n1/meminfo" || !set.Consistent || len(set.Metrics) == 0 {
		t.Errorf("set = %+v", set)
	}
	found := false
	for _, m := range set.Metrics {
		if m.Name == "MemTotal" {
			found = true
		}
	}
	if !found {
		t.Errorf("set snapshot missing MemTotal: %+v", set.Metrics)
	}

	code, body = httpGet(t, base+"/api/v1/metrics?metric=MemTotal&comp=7")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", code, body)
	}
	var latest struct {
		Values []struct {
			Instance string `json:"instance"`
			Value    any    `json:"value"`
		} `json:"values"`
	}
	if err := json.Unmarshal(body, &latest); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if len(latest.Values) != 1 || latest.Values[0].Instance != "n1/meminfo" {
		t.Errorf("latest = %+v", latest)
	}

	code, body = httpGet(t, base+"/api/v1/series?metric=MemTotal&window=1m")
	if code != http.StatusOK {
		t.Fatalf("series: status %d: %s", code, body)
	}
	var series struct {
		Series []struct {
			Instance string `json:"instance"`
			CompID   uint64 `json:"comp_id"`
			Points   []struct {
				Time  time.Time `json:"time"`
				Value any       `json:"value"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatalf("series: %v", err)
	}
	if len(series.Series) == 0 || series.Series[0].Instance != "n1/meminfo" || len(series.Series[0].Points) < 3 {
		t.Fatalf("series = %+v", series)
	}

	code, body = httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", code, body)
	}
	var health struct {
		Status    string `json:"status"`
		Producers []struct {
			Name              string    `json:"name"`
			State             string    `json:"state"`
			Connects          int64     `json:"connects"`
			LastUpdate        time.Time `json:"last_update"`
			ConsecutiveErrors int64     `json:"consecutive_errors"`
			Stale             bool      `json:"stale"`
		} `json:"producers"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health.Status != "ok" || len(health.Producers) != 1 {
		t.Fatalf("healthz = %s", body)
	}
	hp := health.Producers[0]
	if hp.Name != "n1" || hp.State != "CONNECTED" || hp.Connects != 1 || hp.Stale || hp.LastUpdate.IsZero() {
		t.Errorf("producer health = %+v", hp)
	}

	code, body = httpGet(t, base+"/api/v1/latency")
	if code != http.StatusOK {
		t.Fatalf("latency: status %d: %s", code, body)
	}
	var lat struct {
		Hops []struct {
			Hop        string  `json:"hop"`
			Count      uint64  `json:"count"`
			P50Seconds float64 `json:"p50_seconds"`
		} `json:"hops"`
	}
	if err := json.Unmarshal(body, &lat); err != nil {
		t.Fatalf("latency: %v", err)
	}
	if len(lat.Hops) != 4 || lat.Hops[0].Hop != "pull" || lat.Hops[1].Hop != "reduce" || lat.Hops[2].Hop != "window" {
		t.Fatalf("latency hops = %+v", lat.Hops)
	}
	// No reduction and no storage policy: reduce and store hops stay 0.
	for _, h := range []int{0, 2} {
		if lat.Hops[h].Count == 0 || lat.Hops[h].P50Seconds <= 0 {
			t.Errorf("hop %s = %+v, want recorded samples", lat.Hops[h].Hop, lat.Hops[h])
		}
	}

	code, body = httpGet(t, base+"/api/v1/events?component=producer")
	if code != http.StatusOK {
		t.Fatalf("events: status %d: %s", code, body)
	}
	var events struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Severity  string `json:"severity"`
			Component string `json:"component"`
			Subject   string `json:"subject"`
			Epoch     uint64 `json:"epoch"`
			Message   string `json:"message"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("events: %v", err)
	}
	if events.Total == 0 || len(events.Events) == 0 {
		t.Fatalf("events = %s", body)
	}
	ev := events.Events[0]
	if ev.Message != "connected" || ev.Subject != "n1" || ev.Epoch != 1 || ev.Severity != "info" {
		t.Errorf("first producer event = %+v", ev)
	}

	code, body = httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics exposition: status %d", code)
	}
	expo := string(body)
	for _, want := range []string{
		"ldmsd_updater_passes_total",
		"ldmsd_updater_last_pass_seconds",
		"ldmsd_updater_updates_total",
		"ldmsd_producer_connects_total",
		"ldmsd_transport_bytes_total",
		"ldmsd_transport_batches_total",
		"ldmsd_pool_workers",
		"ldmsd_server_updates_total",
		"ldmsd_server_deflate_offers_total",
		"ldmsd_server_deflate_wins_total",
		"ldmsd_server_host_cpu_seconds_total",
		"ldmsd_set_memory_bytes",
		"ldmsd_window_observed_total",
		"ldmsd_http_requests_total",
		"ldmsd_hop_latency_seconds",
		"ldmsd_hop_latency_count",
		"ldmsd_events_total",
		`updater="u1"`,
		`producer="n1"`,
		`hop="pull"`,
		`severity="info"`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Control-interface views of the same counters.
	out, err := agg.Exec("prdcr_status")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"name=n1", "state=CONNECTED", "connects=1", "bytes_in=", "connected_since=", `last_event="connected"`} {
		if !strings.Contains(out, want) {
			t.Errorf("prdcr_status missing %q:\n%s", want, out)
		}
	}
	out, err = agg.Exec("updtr_status")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"prdcr=n1", "last_update=", "consec_errors=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("updtr_status missing %q:\n%s", want, out)
		}
	}
}

// TestGatewayReadsRaceUpdates hammers the gateway's read endpoints from
// several goroutines while update passes continuously rewrite the mirrored
// sets, relying on -race to catch torn reads.
func TestGatewayReadsRaceUpdates(t *testing.T) {
	_, agg := realPipeline(t)
	// A sharded window of 8 points: the race must also cover the striped
	// set index and the change log's eviction, which wraps every 8 samples.
	addr, err := agg.Exec("http_listen addr=127.0.0.1:0 shards=8 points=8")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	waitUntil(t, 5*time.Second, func() bool {
		return agg.Registry().Get("n1/meminfo") != nil
	}, "mirror to appear")

	urls := []string{
		base + "/api/v1/dir",
		base + "/api/v1/sets/n1/meminfo",
		base + "/api/v1/metrics?metric=MemTotal",
		base + "/api/v1/series?metric=MemTotal",
		base + "/api/v1/series?metric=MemTotal&step=2s&agg=max",
		base + "/api/v1/aggregate?metric=MemTotal&func=sum",
		base + "/api/v1/aggregate?metric=MemFree&func=quantile&q=0.5&step=1s",
		base + "/api/v1/latency",
		base + "/api/v1/events",
		base + "/healthz",
		base + "/metrics",
	}
	stop := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				url := urls[(g+i)%len(urls)]
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					resp.Body.Close()
					errs <- err
					return
				}
				resp.Body.Close()
				// /healthz may truthfully answer 503 here: with a 3 ms
				// updater a producer is stale after 12 ms without a clean
				// pull, which four hammering readers on a 2-core box can
				// cause. This test is about races; health verdicts are
				// TestGatewayHealthzRecovery's, on a clock it controls.
				degraded := strings.HasSuffix(url, "/healthz") && resp.StatusCode == http.StatusServiceUnavailable
				if resp.StatusCode != http.StatusOK && !degraded {
					errs <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGatewayDropsSilentClient: a client that connects to the gateway and
// sends nothing is disconnected once the header timeout runs out, and
// after Stop the daemon's goroutines, the gateway's included, are gone.
func TestGatewayDropsSilentClient(t *testing.T) {
	t.Parallel()
	baseline := runtime.NumGoroutine()
	d, err := New(Options{Name: "agg"})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.ServeHTTP(GatewayConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		d.Stop()
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		d.Stop()
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(gatewayReadHeaderTimeout + time.Second))
	_, err = io.ReadAll(conn)
	conn.Close()
	if err != nil {
		t.Errorf("silent client still connected after %v: %v", time.Since(start), err)
	}
	d.Stop()
	waitUntil(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline },
		fmt.Sprintf("goroutines back to the baseline of %d", baseline))
}

// TestGatewaySeriesServesWrittenValues is the bench reader's series check
// over sock loopback: a leaf writes 64-metric sets whose metrics change in
// rotating groups of 8, an aggregator with an 8-point window pulls them,
// and every point /api/v1/series serves must equal the value the leaf
// wrote last, at or before that point's sample, into that metric.
func TestGatewaySeriesServesWrittenValues(t *testing.T) {
	const (
		sets, card, groups = 4, 64, 8
		samples            = 60
		step               = time.Millisecond // stamp spacing: a stamp names its sample
	)
	leaf, err := New(Options{Name: "leaf", Transports: []transport.Factory{transport.SockFactory{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Stop()
	sch := metric.NewSchema("rot")
	for m := 0; m < card; m++ {
		sch.MustAddMetric(fmt.Sprintf("m%03d", m), metric.TypeU64)
	}
	written := make([]*metric.Set, sets)
	for i := range written {
		s, err := metric.New(fmt.Sprintf("leaf/rot%d", i), sch, metric.WithCompID(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := leaf.Registry().Add(s); err != nil {
			t.Fatal(err)
		}
		written[i] = s
	}
	addr, err := leaf.Listen("sock", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	agg, err := New(Options{Name: "agg", Transports: []transport.Factory{transport.SockFactory{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	if _, err := agg.ExecScript(`
prdcr_add name=leaf xprt=sock host=` + addr + ` interval=20000
prdcr_start name=leaf
updtr_add name=u interval=5000
updtr_prdcr_add name=u prdcr=leaf
updtr_start name=u
`); err != nil {
		t.Fatal(err)
	}
	gw, err := agg.Exec("http_listen addr=127.0.0.1:0 points=8")
	if err != nil {
		t.Fatal(err)
	}

	// value is what metric m of set id holds after sample seq: group g is
	// rewritten on every seq with seq mod groups == g.
	value := func(id uint64, m int, seq int64) uint64 {
		last := seq - ((seq-int64(m/groups))%groups+groups)%groups
		if last <= 0 {
			return 0
		}
		return id<<40 | uint64(m)<<20 | uint64(last)
	}
	base := time.Now().Truncate(time.Second)
	check := func() int {
		served := 0
		for i := range written {
			id := uint64(i + 1)
			for _, m := range []int{0, 7, 8, 31, 56, 63} {
				code, body := httpGet(t, fmt.Sprintf("http://%s/api/v1/series?metric=m%03d&comp=%d", gw, m, id))
				if code != http.StatusOK {
					t.Fatalf("series: status %d: %s", code, body)
				}
				var v struct {
					Series []struct {
						Points []struct {
							Time  time.Time   `json:"time"`
							Value json.Number `json:"value"`
						} `json:"points"`
					} `json:"series"`
				}
				if err := json.Unmarshal(body, &v); err != nil {
					t.Fatal(err)
				}
				for _, s := range v.Series {
					if len(s.Points) > 8 {
						t.Fatalf("set %d m%03d: %d points from an 8-point window", id, m, len(s.Points))
					}
					for _, p := range s.Points {
						seq := int64(p.Time.Sub(base) / step)
						if got, want := p.Value.String(), fmt.Sprint(value(id, m, seq)); got != want {
							t.Fatalf("set %d m%03d sample %d: served %s, wrote %s", id, m, seq, got, want)
						}
						served++
					}
				}
			}
		}
		return served
	}
	// inWindow waits until the window holds sample seq of every set.
	inWindow := func(seq int64) {
		at := base.Add(time.Duration(seq) * step)
		waitUntil(t, 5*time.Second, func() bool {
			latest := agg.Window().Latest("m000", 0)
			for _, s := range latest {
				if !s.Points[0].Time.Equal(at) {
					return false
				}
			}
			return len(latest) == sets
		}, fmt.Sprintf("sample %d in the window", seq))
	}
	for seq := int64(1); seq <= samples; seq++ {
		g := int(seq % groups)
		for i, s := range written {
			s.BeginTransaction()
			for m := g * groups; m < (g+1)*groups; m++ {
				s.SetU64(m, value(uint64(i+1), m, seq))
			}
			s.EndTransaction(base.Add(time.Duration(seq) * step))
		}
		// Every other sample may be overwritten before a pull sees it.
		if seq%2 == 0 {
			inWindow(seq)
		}
		if seq%10 == 0 {
			check()
		}
	}
	if served := check(); served < sets*6*8 {
		t.Fatalf("served %d points, want the full 8 of every series", served)
	}
}
