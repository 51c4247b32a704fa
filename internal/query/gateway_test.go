package query

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"goldms/internal/metric"
)

// testGateway builds a gateway over a two-set registry and a filled window.
func testGateway(t *testing.T, health func() []ProducerHealth) (*Gateway, *httptest.Server) {
	t.Helper()
	reg := metric.NewRegistry()
	w := NewWindow(32, time.Hour)
	for i, name := range []string{"n1/win", "n2/win"} {
		s := testSet(t, name, uint64(i+1))
		sample(s, uint64(10*(i+1)), time.Now())
		if err := reg.Add(s); err != nil {
			t.Fatal(err)
		}
		w.Observe(s)
	}
	g := &Gateway{
		DaemonName: "agg-test",
		Sets:       reg,
		Window:     w,
		Health:     health,
		Started:    time.Now(),
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv
}

// getJSON fetches a URL and decodes the JSON body.
func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d (%s)", url, resp.StatusCode, wantCode, body)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return out
}

func TestGatewayDirAndSet(t *testing.T) {
	_, srv := testGateway(t, nil)

	dir := getJSON(t, srv.URL+"/api/v1/dir", 200)
	sets, _ := dir["sets"].([]any)
	if len(sets) != 2 {
		t.Fatalf("dir sets = %d, want 2", len(sets))
	}
	first := sets[0].(map[string]any)
	if first["instance"] != "n1/win" || first["schema"] != "win" || first["consistent"] != true {
		t.Errorf("dir entry = %v", first)
	}

	snap := getJSON(t, srv.URL+"/api/v1/sets/n1/win", 200)
	if snap["consistent"] != true || snap["schema"] != "win" {
		t.Errorf("snapshot = %v", snap)
	}
	metrics := snap["metrics"].([]any)
	if len(metrics) != 2 {
		t.Fatalf("snapshot metrics = %d", len(metrics))
	}
	m0 := metrics[0].(map[string]any)
	if m0["name"] != "a" || m0["value"].(float64) != 10 {
		t.Errorf("metric a = %v", m0)
	}

	getJSON(t, srv.URL+"/api/v1/sets/nope", 404)
}

func TestGatewayMetricsLatest(t *testing.T) {
	_, srv := testGateway(t, nil)

	// Listing mode.
	list := getJSON(t, srv.URL+"/api/v1/metrics", 200)
	names := list["metrics"].([]any)
	if len(names) != 2 || names[0] != "a" {
		t.Fatalf("metric names = %v", names)
	}

	latest := getJSON(t, srv.URL+"/api/v1/metrics?metric=a", 200)
	vals := latest["values"].([]any)
	if len(vals) != 2 {
		t.Fatalf("latest values = %d, want 2", len(vals))
	}
	v1 := vals[1].(map[string]any)
	if v1["instance"] != "n2/win" || v1["value"].(float64) != 20 {
		t.Errorf("latest n2 = %v", v1)
	}

	// Component filter.
	one := getJSON(t, srv.URL+"/api/v1/metrics?metric=a&comp=1", 200)
	if vals := one["values"].([]any); len(vals) != 1 {
		t.Fatalf("comp filter values = %d, want 1", len(vals))
	}
	getJSON(t, srv.URL+"/api/v1/metrics?metric=a&comp=zzz", 400)
}

func TestGatewaySeries(t *testing.T) {
	_, srv := testGateway(t, nil)

	got := getJSON(t, srv.URL+"/api/v1/series?metric=a&window=10m", 200)
	series := got["series"].([]any)
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	s0 := series[0].(map[string]any)
	pts := s0["points"].([]any)
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	if got["window"] != "10m0s" {
		t.Errorf("window echo = %v", got["window"])
	}

	getJSON(t, srv.URL+"/api/v1/series", 400)
	getJSON(t, srv.URL+"/api/v1/series?metric=a&window=bogus", 400)

	// No window configured: series is a 503, the live endpoints still work.
	reg := metric.NewRegistry()
	g2 := &Gateway{DaemonName: "bare", Sets: reg}
	srv2 := httptest.NewServer(g2.Handler())
	defer srv2.Close()
	getJSON(t, srv2.URL+"/api/v1/series?metric=a", 503)
	getJSON(t, srv2.URL+"/api/v1/dir", 200)
}

func TestGatewayHealthz(t *testing.T) {
	healthy := []ProducerHealth{
		{Name: "p1", State: "CONNECTED", Active: true, LastUpdate: time.Now()},
	}
	_, srv := testGateway(t, func() []ProducerHealth { return healthy })

	ok := getJSON(t, srv.URL+"/healthz", 200)
	if ok["status"] != "ok" {
		t.Errorf("status = %v", ok["status"])
	}

	healthy = append(healthy, ProducerHealth{Name: "p2", State: "CONNECTED", Active: true, Stale: true, ConsecutiveErrors: 5})
	degraded := getJSON(t, srv.URL+"/healthz", 503)
	if degraded["status"] != "degraded" {
		t.Errorf("status = %v", degraded["status"])
	}
	stale := degraded["stale"].([]any)
	if len(stale) != 1 || stale[0] != "p2" {
		t.Errorf("stale = %v", stale)
	}
}

func TestGatewayExposition(t *testing.T) {
	g, srv := testGateway(t, nil)
	g.Collect = func(e *Expo) {
		e.Counter("ldmsd_updater_passes_total", "Update passes.", []Label{{"updtr", "u1"}}, 42)
	}
	// Generate one API hit so the request counter is non-zero.
	getJSON(t, srv.URL+"/api/v1/dir", 200)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE ldmsd_http_requests_total counter",
		`ldmsd_http_requests_total{endpoint="/api/v1/dir",daemon="agg-test"} 1`,
		"# TYPE ldmsd_window_series gauge",
		`ldmsd_window_series{daemon="agg-test"} 4`,
		`ldmsd_updater_passes_total{updtr="u1"} 42`,
		"ldmsd_goroutines{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestExpoFormat(t *testing.T) {
	e := NewExpo()
	e.Counter("x_total", "Things.", []Label{{"a", `q"uo\te`}}, 3)
	e.Counter("x_total", "Things.", []Label{{"a", "two"}}, 4.5)
	e.Gauge("y", "", nil, 2)
	got := e.String()
	want := "# HELP x_total Things.\n# TYPE x_total counter\n" +
		`x_total{a="q\"uo\\te"} 3` + "\n" +
		`x_total{a="two"} 4.5` + "\n" +
		"# TYPE y gauge\ny 2\n"
	if got != want {
		t.Errorf("exposition:\n%q\nwant:\n%q", got, want)
	}
}

// testGatewayHistory builds a gateway whose window holds 3 producers ×
// 8 samples at a 1 s cadence (a = comp*100 + i), for step/aggregate tests.
func testGatewayHistory(t *testing.T) (*httptest.Server, time.Time) {
	t.Helper()
	reg := metric.NewRegistry()
	w := NewWindowOpts(WindowOptions{Points: 64, Retention: time.Hour, Shards: 4})
	base := time.Now().Truncate(4 * time.Second).Add(-time.Minute)
	for p := 1; p <= 3; p++ {
		s := testSet(t, fmt.Sprintf("n%d/win", p), uint64(p))
		if err := reg.Add(s); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			sample(s, uint64(p*100+i), base.Add(time.Duration(i)*time.Second))
			w.Observe(s)
		}
	}
	g := &Gateway{DaemonName: "agg-test", Sets: reg, Window: w, Started: time.Now()}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return srv, base
}

func TestGatewaySeriesStep(t *testing.T) {
	srv, _ := testGatewayHistory(t)

	// Raw: 8 points per series.
	raw := getJSON(t, srv.URL+"/api/v1/series?metric=a&window=10m", 200)
	if pts := raw["series"].([]any)[0].(map[string]any)["points"].([]any); len(pts) != 8 {
		t.Fatalf("raw points = %d, want 8", len(pts))
	}

	// step=4s downsamples each series to 2 buckets; avg is the default.
	ds := getJSON(t, srv.URL+"/api/v1/series?metric=a&window=10m&step=4s", 200)
	if ds["step"] != "4s" || ds["agg"] != "avg" {
		t.Fatalf("step/agg echo = %v/%v", ds["step"], ds["agg"])
	}
	series := ds["series"].([]any)
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	s0 := series[0].(map[string]any)
	pts := s0["points"].([]any)
	if len(pts) != 2 {
		t.Fatalf("downsampled points = %d, want 2", len(pts))
	}
	// comp 1: buckets avg(100..103)=101.5 and avg(104..107)=105.5.
	if v := pts[0].(map[string]any)["value"].(float64); v != 101.5 {
		t.Errorf("bucket 0 = %v, want 101.5", v)
	}
	if v := pts[1].(map[string]any)["value"].(float64); v != 105.5 {
		t.Errorf("bucket 1 = %v, want 105.5", v)
	}

	// agg=last keeps raw newest-per-bucket points.
	last := getJSON(t, srv.URL+"/api/v1/series?metric=a&window=10m&step=4s&agg=last", 200)
	lp := last["series"].([]any)[0].(map[string]any)["points"].([]any)
	if v := lp[0].(map[string]any)["value"].(float64); v != 103 {
		t.Errorf("last bucket 0 = %v, want 103", v)
	}

	getJSON(t, srv.URL+"/api/v1/series?metric=a&step=bogus", 400)
	getJSON(t, srv.URL+"/api/v1/series?metric=a&step=-3s", 400)
	getJSON(t, srv.URL+"/api/v1/series?metric=a&step=4s&agg=median", 400)
	getJSON(t, srv.URL+"/api/v1/series?metric=a&step=4s&agg=quantile&q=7", 400)
}

func TestGatewayAggregate(t *testing.T) {
	srv, _ := testGatewayHistory(t)

	// Whole-window sum across 3 producers.
	sum := getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&window=10m&func=sum", 200)
	if sum["func"] != "sum" || sum["series_count"].(float64) != 3 {
		t.Fatalf("aggregate header = %v", sum)
	}
	pts := sum["points"].([]any)
	if len(pts) != 1 {
		t.Fatalf("whole-window buckets = %d, want 1", len(pts))
	}
	p0 := pts[0].(map[string]any)
	// sum over p=1..3, i=0..7 of p*100+i = 100*6*8 + 3*28.
	if want := float64(100*6*8 + 3*28); p0["value"].(float64) != want {
		t.Errorf("sum = %v, want %v", p0["value"], want)
	}
	if p0["count"].(float64) != 24 {
		t.Errorf("count = %v, want 24", p0["count"])
	}

	// Stepped max: 2 buckets, max of comp 3's run.
	mx := getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&window=10m&func=max&step=4s", 200)
	if mx["step"] != "4s" {
		t.Fatalf("step echo = %v", mx["step"])
	}
	mpts := mx["points"].([]any)
	if len(mpts) != 2 {
		t.Fatalf("stepped buckets = %d, want 2", len(mpts))
	}
	if v := mpts[1].(map[string]any)["value"].(float64); v != 307 {
		t.Errorf("bucket 1 max = %v, want 307", v)
	}

	// Quantile echoes q; default func is avg; comp filter applies.
	qn := getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&window=10m&func=quantile&q=1", 200)
	if qn["q"].(float64) != 1 || qn["points"].([]any)[0].(map[string]any)["value"].(float64) != 307 {
		t.Fatalf("quantile result = %v", qn)
	}
	one := getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&window=10m&comp=2", 200)
	if one["series_count"].(float64) != 1 || one["func"] != "avg" {
		t.Fatalf("comp-filtered aggregate = %v", one)
	}

	// Errors.
	getJSON(t, srv.URL+"/api/v1/aggregate", 400)
	getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&func=median", 400)
	getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&q=2", 400)
	getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&comp=zzz", 400)
	getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&window=bogus", 400)
	getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&step=bogus", 400)

	// No window configured: 503.
	g2 := &Gateway{DaemonName: "bare", Sets: metric.NewRegistry()}
	srv2 := httptest.NewServer(g2.Handler())
	defer srv2.Close()
	getJSON(t, srv2.URL+"/api/v1/aggregate?metric=a", 503)
}

// TestGatewayExpositionWindowKnobs asserts the shard gauge and the aggregate counter reach /metrics.
func TestGatewayExpositionWindowKnobs(t *testing.T) {
	srv, _ := testGatewayHistory(t)
	getJSON(t, srv.URL+"/api/v1/aggregate?metric=a&window=10m", 200)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`ldmsd_window_shards{daemon="agg-test"} 4`,
		`ldmsd_window_aggregates_total{daemon="agg-test"} 1`,
		"# TYPE ldmsd_window_points gauge",
		"# TYPE ldmsd_window_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
