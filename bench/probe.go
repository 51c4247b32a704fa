package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// probeResolution is the poll spacing while a probe's sample is awaited: at
// 1 ms the polls cost a lightly loaded top 10-15 % of its CPU, at 2 ms about
// half that, for a uniform 0..2 ms added to every age.
const probeResolution = 2 * time.Millisecond

// ageSample is one freshness observation: sample seq of a probe set became
// readable at the top gateway age after it was due at the generator.
type ageSample struct {
	seq int64
	age time.Duration
}

// prober measures sample age from outside: for every sample it polls
// GET /api/v1/sets/<instance> on the top gateway until the set's timestamp
// reaches the sample's due time. It polls only between the moment the top's
// updater is scheduled to start and the first sighting, and walks a chain
// of probes in the order the updater pulls them, so at most one request per
// chain is in flight — continuous polling of wide sets doubled aggregator
// CPU when this rig was sized.
type prober struct {
	base   string               // http://host:port
	offset time.Duration        // top updater offset behind the sample grid
	chains [][]string           // per top-level producer: instances in pull order
	gate   func(seq int64) bool // nil, or which samples to watch at all

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu     sync.Mutex
	ages   []ageSample
	failed int   // polls that got no answer: a frozen vCPU outlasting the client's timeout
	err    error // the first of them
}

func startProber(base string, offset time.Duration, chains [][]string, gate func(int64) bool) *prober {
	p := &prober{base: base, offset: offset, chains: chains, gate: gate, stop: make(chan struct{})}
	for _, c := range chains {
		p.wg.Add(1)
		go p.run(c)
	}
	return p
}

// close stops polling; results are stable afterwards.
func (p *prober) close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}

func (p *prober) sleepUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		d = 0
	}
	select {
	case <-p.stop:
		return false
	case <-time.After(d):
		return true
	}
}

func newKeepAliveClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func (p *prober) run(chain []string) {
	defer p.wg.Done()
	client := newKeepAliveClient()
	defer client.CloseIdleConnections()
	var ages []ageSample
	defer func() {
		p.mu.Lock()
		p.ages = append(p.ages, ages...)
		p.mu.Unlock()
	}()
	for {
		seq := time.Now().UnixNano()/int64(interval) + 1
		due := time.Unix(0, seq*int64(interval))
		if !p.sleepUntil(due.Add(p.offset)) {
			return
		}
		if p.gate != nil && !p.gate(seq) {
			continue
		}
		// Give up on this sample shortly before the next one is pulled.
		giveUp := due.Add(interval + p.offset - 5*time.Millisecond)
	chain:
		for _, inst := range chain {
			for {
				seen, err := p.poll(client, inst)
				now := time.Now()
				if err != nil { // the sample goes unsighted unless a later poll gets through
					p.mu.Lock()
					if p.failed++; p.err == nil {
						p.err = err
					}
					p.mu.Unlock()
					seen = 0
				}
				if seen == seq {
					ages = append(ages, ageSample{seq, now.Sub(due)})
					break
				}
				if seen > seq || now.After(giveUp) {
					break chain // missed: the sample's age goes unrecorded and the coverage check sees the gap
				}
				if !p.sleepUntil(now.Add(probeResolution)) {
					return
				}
			}
		}
	}
}

// poll returns the sample seq (timestamp / interval) the top currently
// holds for inst. Generator sets and synchronous samplers both stamp the
// grid time they were due at, so the seq is exact.
func (p *prober) poll(client *http.Client, inst string) (int64, error) {
	resp, err := client.Get(p.base + "/api/v1/sets/" + inst)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("probe %s: HTTP %d: %s", inst, resp.StatusCode, body)
	}
	var v struct {
		Timestamp  time.Time `json:"timestamp"`
		Consistent bool      `json:"consistent"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("probe %s: %w", inst, err)
	}
	if !v.Consistent {
		return 0, nil // mirror not filled yet
	}
	return v.Timestamp.UnixNano() / int64(interval), nil
}
