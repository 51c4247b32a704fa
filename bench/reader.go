package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The query mix: what a dashboard and a scraper ask a top-tier gateway.
const (
	reqSeries     = iota // one component's raw series over the window
	reqAggregate         // cross-producer avg, 1s buckets
	reqLatest            // latest value across every set
	reqSeriesStep        // every producer's series, downsampled server-side
	reqExposition        // Prometheus scrape
	reqKinds
)

var reqKindNames = [reqKinds]string{"series", "aggregate", "latest", "series_step", "exposition"}

// reqShare is the mix in percent, in reqKind order.
var reqShare = [reqKinds]int{60, 20, 10, 5, 5}

const readerConns = 2

// reqResult is one completed (or failed) request. Latency runs from the
// time the request was due, not from when it was sent, so a stall charges
// every request queued behind it.
type reqResult struct {
	kind    int
	due     time.Time
	late    time.Duration // send time - due: how far behind the reader ran
	latency time.Duration
	fail    string
	wrong   bool // the failure is a reply that says something false, not one short of samples or late
}

// reader is the open-loop query load: request i is due at base + i/rate
// whatever happened to request i-1, over readerConns keep-alive
// connections. Which request i is depends only on (seed, i).
type reader struct {
	base string
	gen  *generator
	t0   time.Time

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	mu   sync.Mutex
	res  []reqResult
}

func startReader(base string, gen *generator, t0 time.Time) *reader {
	r := &reader{base: base, gen: gen, t0: t0, stop: make(chan struct{})}
	for c := 0; c < readerConns; c++ {
		r.wg.Add(1)
		go r.run(c)
	}
	return r
}

// close stops the schedule; results are stable afterwards.
func (r *reader) close() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *reader) run(conn int) {
	defer r.wg.Done()
	client := newKeepAliveClient()
	defer client.CloseIdleConnections()
	var res []reqResult
	defer func() {
		r.mu.Lock()
		r.res = append(r.res, res...)
		r.mu.Unlock()
	}()
	for i := conn; ; i += readerConns {
		due := r.t0.Add(time.Duration(i) * time.Second / queryRate)
		select {
		case <-r.stop:
			return
		case <-time.After(max(0, time.Until(due))):
		}
		kind, url, check := r.request(uint64(i))
		sent := time.Now()
		err := fetch(client, r.base+url, check)
		out := reqResult{kind: kind, due: due, late: sent.Sub(due), latency: time.Since(due)}
		switch {
		case err != nil:
			out.fail, out.wrong = err.Error(), errors.As(err, new(wrongReply))
		case out.latency > time.Second:
			out.fail = "more than 1s late"
		}
		res = append(res, out)
	}
}

func fetch(client *http.Client, url string, check func([]byte) error) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	return check(body)
}

// wrongReply is a reply that says something false: a value that was never
// written, timestamps out of order. Every other failure — too few points, a
// missing series, a transport error — is what skipped samples, a reconnect or
// a frozen vCPU do to a reply.
type wrongReply struct{ error }

type jsonPoint struct {
	Time  time.Time   `json:"time"`
	Value json.Number `json:"value"`
}

type jsonSeries struct {
	Instance string      `json:"instance"`
	CompID   uint64      `json:"comp_id"`
	Points   []jsonPoint `json:"points"`
}

// increasing checks a series has between lo and hi points with strictly
// increasing timestamps.
func increasing(pts []jsonPoint, lo, hi int) error {
	if len(pts) < lo || len(pts) > hi {
		return fmt.Errorf("%d points, want %d..%d", len(pts), lo, hi)
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i].Time.After(pts[i-1].Time) {
			return wrongReply{fmt.Errorf("timestamps not strictly increasing at point %d", i)}
		}
	}
	return nil
}

// request picks request i of the schedule and the validator for its reply.
func (r *reader) request(i uint64) (kind int, url string, check func([]byte) error) {
	g := r.gen
	h := splitmix(g.seed, 0x51, 0, i)
	pick := int(h % 100)
	for kind = 0; pick >= reqShare[kind]; kind++ {
		pick -= reqShare[kind]
	}
	// Any non-probe set, any metric.
	var set *genSet
	for k := uint64(0); set == nil || set.probe; k++ {
		set = g.sets[(h>>8+k)%uint64(len(g.sets))]
	}
	m := int((h >> 40) % uint64(g.w.card))
	metricName := set.set.MetricName(m)
	nSets := numGens * g.w.setsPerGen
	perWindow := int(queryWindow / interval)
	win := queryWindow.String()

	switch kind {
	case reqSeries:
		url = fmt.Sprintf("/api/v1/series?metric=%s&comp=%d&window=%s", metricName, set.id, win)
		check = func(body []byte) error {
			var v struct{ Series []jsonSeries }
			if err := json.Unmarshal(body, &v); err != nil {
				return err
			}
			if len(v.Series) != 1 || v.Series[0].CompID != set.id {
				return fmt.Errorf("%d series for comp %d", len(v.Series), set.id)
			}
			pts := v.Series[0].Points
			if err := increasing(pts, perWindow-2, perWindow+1); err != nil {
				return err
			}
			for _, p := range pts {
				got, err := strconv.ParseUint(p.Value.String(), 10, 64)
				want := g.w.expected(g.seed, set.id, m, p.Time.UnixNano()/int64(interval))
				if err != nil || got != want {
					return wrongReply{fmt.Errorf("%s %s at %s: got %s want %d", v.Series[0].Instance, metricName, p.Time, p.Value, want)}
				}
			}
			return nil
		}
	case reqAggregate:
		url = fmt.Sprintf("/api/v1/aggregate?metric=%s&func=avg&window=%s&step=1s", metricName, win)
		check = func(body []byte) error {
			var v struct {
				SeriesCount int `json:"series_count"`
				Points      []jsonPoint
			}
			if err := json.Unmarshal(body, &v); err != nil {
				return err
			}
			if v.SeriesCount != nSets {
				return fmt.Errorf("aggregate over %d series, want %d", v.SeriesCount, nSets)
			}
			buckets := int(queryWindow / time.Second)
			return increasing(v.Points, buckets, buckets+1)
		}
	case reqLatest:
		url = "/api/v1/metrics?metric=" + metricName
		check = func(body []byte) error {
			var v struct{ Values []json.RawMessage }
			if err := json.Unmarshal(body, &v); err != nil {
				return err
			}
			if len(v.Values) != nSets {
				return fmt.Errorf("latest across %d sets, want %d", len(v.Values), nSets)
			}
			return nil
		}
	case reqSeriesStep:
		url = fmt.Sprintf("/api/v1/series?metric=%s&window=%s&step=2s&agg=max", metricName, win)
		check = func(body []byte) error {
			var v struct{ Series []jsonSeries }
			if err := json.Unmarshal(body, &v); err != nil {
				return err
			}
			if len(v.Series) != nSets {
				return fmt.Errorf("%d series, want %d", len(v.Series), nSets)
			}
			buckets := int(queryWindow / (2 * time.Second))
			for _, s := range v.Series {
				if err := increasing(s.Points, buckets, buckets+2); err != nil {
					return fmt.Errorf("%s: %w", s.Instance, err)
				}
			}
			return nil
		}
	default:
		url = "/metrics"
		check = func(body []byte) error {
			if !bytes.Contains(body, []byte("ldmsd_")) {
				return fmt.Errorf("exposition carries no ldmsd_ metric")
			}
			return nil
		}
	}
	return kind, url, check
}
