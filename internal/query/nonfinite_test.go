package query

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"goldms/internal/metric"
)

// replyGateway serves three producers × 8 samples at a 1 s cadence on a
// fixed clock: a = comp*100 + i, and b = bs[comp-1] when given, else a/2.
// Set timestamps render in the local zone, so the caller's replies are
// compared with time.Local pinned to UTC.
func replyGateway(t *testing.T, bs ...float64) *httptest.Server {
	t.Helper()
	local := time.Local
	time.Local = time.UTC
	t.Cleanup(func() { time.Local = local })
	base := time.Unix(1700000000, 0)
	now := func() time.Time { return base.Add(time.Minute) }
	reg := metric.NewRegistry()
	w := NewWindow(32, time.Hour)
	w.SetClock(now)
	for p := 1; p <= max(3, len(bs)); p++ {
		s := testSet(t, fmt.Sprintf("n%d/win", p), uint64(p))
		for i := 0; i < 8; i++ {
			v := uint64(p*100 + i)
			b := float64(v) / 2
			if p <= len(bs) {
				b = bs[p-1]
			}
			s.BeginTransaction()
			s.SetU64(0, v)
			s.SetF64(1, b)
			s.EndTransaction(base.Add(time.Duration(i) * time.Second))
			w.Observe(s)
		}
		if err := reg.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	g := &Gateway{DaemonName: "agg-test", Sets: reg, Window: w, Started: base, Now: now}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// get fetches path and returns the status code and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestGatewayFiniteRepliesGolden: replies that carry only finite values
// (-0 among them) are byte for byte the ones testdata/finite_replies.golden
// recorded before non-finite values had an encoding.
func TestGatewayFiniteRepliesGolden(t *testing.T) {
	srv := replyGateway(t, 1.5, math.Copysign(0, -1), 1e300)
	f, err := os.Open("testdata/finite_replies.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var path string
		var code int
		if _, err := fmt.Sscanf(line, "GET %s %d", &path, &code); err != nil || !sc.Scan() {
			t.Fatalf("malformed golden entry %q: %v", line, err)
		}
		want := sc.Text() + "\n"
		gotCode, got := get(t, srv, path)
		if gotCode != code || got != want {
			t.Errorf("GET %s = %d\n%s\nwant %d\n%s", path, gotCode, got, code, want)
		}
		n++
	}
	if err := sc.Err(); err != nil || n == 0 {
		t.Fatalf("read %d golden entries: %v", n, err)
	}
}

// TestGatewayNonFiniteValues runs every JSON endpoint over sets whose d64
// metric reads NaN, +Inf, -Inf and -0: each reply is a 200 of valid JSON in
// which the non-finite values are null and -0 stays -0.
func TestGatewayNonFiniteValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	srv := replyGateway(t, math.NaN(), math.Inf(1), math.Inf(-1), negZero)
	for _, path := range []string{
		"/api/v1/dir",
		"/api/v1/sets/n1/win",
		"/api/v1/sets/n2/win",
		"/api/v1/sets/n3/win",
		"/api/v1/sets/n4/win",
		"/api/v1/metrics",
		"/api/v1/metrics?metric=b",
		"/api/v1/series?metric=b&window=10m",
		"/api/v1/series?metric=b&window=10m&step=4s&agg=max",
		"/api/v1/series?metric=b&window=10m&step=4s&agg=last",
		"/api/v1/aggregate?metric=b&window=10m&func=sum",
		"/api/v1/aggregate?metric=b&window=10m&func=max&step=4s",
		"/api/v1/aggregate?metric=b&window=10m&func=quantile&q=0.5",
		"/healthz",
	} {
		code, body := get(t, srv, path)
		if code != http.StatusOK || !json.Valid([]byte(body)) {
			t.Errorf("GET %s = %d %q, want 200 and valid JSON", path, code, body)
		}
	}

	// The latest value of b per set, straight from the sets.
	var latest struct {
		Values []struct {
			Instance string
			Value    *float64
		}
	}
	_, body := get(t, srv, "/api/v1/metrics?metric=b")
	if err := json.Unmarshal([]byte(body), &latest); err != nil {
		t.Fatal(err)
	}
	if len(latest.Values) != 4 {
		t.Fatalf("latest values = %d, want 4: %s", len(latest.Values), body)
	}
	for _, v := range latest.Values[:3] {
		if v.Value != nil {
			t.Errorf("%s: non-finite b = %v, want null", v.Instance, *v.Value)
		}
	}
	if v := latest.Values[3].Value; v == nil || *v != 0 || !math.Signbit(*v) {
		t.Errorf("n4/win: b = %v, want -0", v)
	}
	if !strings.Contains(body, `"value":-0`) {
		t.Errorf("-0 lost its sign: %s", body)
	}

	// Every raw point of the non-finite series is null.
	_, body = get(t, srv, "/api/v1/series?metric=b&window=10m")
	for _, inst := range []string{"n1/win", "n2/win", "n3/win"} {
		if !strings.Contains(body, `"instance":"`+inst+`"`) {
			t.Errorf("series reply lacks %s: %s", inst, body)
		}
	}
	if got, want := strings.Count(body, `"value":null`), 3*8; got != want {
		t.Errorf("series reply holds %d null values, want %d: %s", got, want, body)
	}

	// One NaN member poisons the fold: its bucket's value is null.
	_, body = get(t, srv, "/api/v1/aggregate?metric=b&window=10m&func=sum")
	if !strings.Contains(body, `"value":null`) || !strings.Contains(body, `"count":32`) {
		t.Errorf("aggregate over a NaN member = %s, want a null value over 32 points", body)
	}
}

// TestGatewayEncodeErrorIs500: a reply that cannot be encoded is a counted
// 500 with an error body, never an empty 200.
func TestGatewayEncodeErrorIs500(t *testing.T) {
	g := &Gateway{DaemonName: "agg-test", Sets: metric.NewRegistry()}
	h := g.Handler()
	rec := httptest.NewRecorder()
	g.writeJSON(rec, map[string]any{"value": math.NaN()})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encode reply") {
		t.Errorf("unencodable reply = %d %q, want 500 naming the encode error", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `ldmsd_http_errors_total{daemon="agg-test"} 1`) {
		t.Errorf("encode failure not counted:\n%s", rec.Body.String())
	}
}
