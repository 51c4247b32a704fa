package ldmsd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/sched"
	"goldms/internal/store"
	"goldms/internal/transport"
)

// pipeStore is an in-memory store plugin for pipeline tests. It takes a
// batch one row at a time, so a configured per-row delay models a slow
// backend. Options:
//
//	delay=<dur>     sleep per stored row
//	fail_after=<n>  return an error on row n+1 and every row after
//
// Instances register themselves in pipeStores by Config.Path so tests can
// inspect what the plugin actually received.
type pipeStore struct {
	mu        sync.Mutex
	delay     time.Duration
	failAfter int
	rows      []metric.Row // deep-copied: queue rows are recycled after the call
	flushes   int
	closed    bool
}

var pipeStores sync.Map // path -> *pipeStore

func init() {
	store.Register("store_testpipe", func(cfg store.Config) (store.Store, error) {
		ps := &pipeStore{failAfter: -1}
		if v := cfg.Options["delay"]; v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, err
			}
			ps.delay = d
		}
		if v := cfg.Options["fail_after"]; v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, err
			}
			ps.failAfter = n
		}
		pipeStores.Store(cfg.Path, ps)
		return ps, nil
	})
}

func (ps *pipeStore) Name() string { return "store_testpipe" }

func (ps *pipeStore) StoreBatch(rows []metric.Row) error {
	for _, row := range rows {
		if err := ps.store(row); err != nil {
			return err
		}
	}
	return nil
}

func (ps *pipeStore) store(row metric.Row) error {
	if ps.delay > 0 {
		time.Sleep(ps.delay)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.failAfter >= 0 && len(ps.rows) >= ps.failAfter {
		return fmt.Errorf("testpipe: refusing row %d", len(ps.rows))
	}
	cp := row
	cp.Values = append([]metric.Value(nil), row.Values...)
	ps.rows = append(ps.rows, cp)
	return nil
}

func (ps *pipeStore) Flush() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.flushes++
	return nil
}

func (ps *pipeStore) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.closed = true
	return nil
}

func (ps *pipeStore) BytesWritten() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return int64(len(ps.rows))
}

func (ps *pipeStore) stored() []metric.Row {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]metric.Row(nil), ps.rows...)
}

// getPipeStore fetches the plugin instance a policy created for path.
func getPipeStore(t *testing.T, path string) *pipeStore {
	t.Helper()
	v, ok := pipeStores.Load(path)
	if !ok {
		t.Fatalf("no pipeStore instance for %s", path)
	}
	return v.(*pipeStore)
}

// benchSet builds one consistent two-metric set of the "bench" schema.
func benchSet(t testing.TB, name string, seed uint64) *metric.Set {
	t.Helper()
	sch := metric.NewSchema("bench")
	sch.MustAddMetric("a", metric.TypeU64)
	sch.MustAddMetric("b", metric.TypeU64)
	set, err := metric.New(name, sch)
	if err != nil {
		t.Fatal(err)
	}
	set.BeginTransaction()
	set.SetU64(0, seed)
	set.SetU64(1, 2*seed)
	set.EndTransaction(time.Unix(int64(1000+seed), 0))
	return set
}

// realDaemon builds a real-clock daemon (store pool active) with no
// network plumbing, for driving storeSet directly.
func realDaemon(t *testing.T, workers int) *Daemon {
	t.Helper()
	d, err := New(Options{Name: "store-test", StoreWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// TestStorePipelineConcurrentEnqueue hammers one policy from many
// goroutines (as concurrent updater workers do) while the flush ticker
// fires, then checks row conservation: every sample is either stored or
// counted as dropped. Run under -race this exercises the enqueue/drain/
// flush locking.
func TestStorePipelineConcurrentEnqueue(t *testing.T) {
	d := realDaemon(t, 2)
	path := filepath.Join(t.TempDir(), "concurrent")
	sp, err := d.AddStoragePolicy("s", "store_testpipe", "bench", path,
		map[string]string{"flush_interval": "2ms"})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			set := benchSet(t, fmt.Sprintf("n%d/bench", w), uint64(w))
			for i := 0; i < perWriter; i++ {
				set.BeginTransaction()
				set.SetU64(0, uint64(i))
				set.EndTransaction(time.Unix(int64(i), 0))
				d.storeSet(set, false)
			}
		}(w)
	}
	wg.Wait()
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}

	c := sp.Counters()
	if c.Enqueued != writers*perWriter {
		t.Errorf("enqueued = %d want %d", c.Enqueued, writers*perWriter)
	}
	if c.Rows+c.Dropped != c.Enqueued {
		t.Errorf("rows %d + dropped %d != enqueued %d", c.Rows, c.Dropped, c.Enqueued)
	}
	if c.Rows == 0 || c.Batches == 0 {
		t.Errorf("nothing stored: %+v", c)
	}
	ps := getPipeStore(t, path)
	if got := int64(len(ps.stored())); got != c.Rows {
		t.Errorf("plugin saw %d rows, counters say %d", got, c.Rows)
	}
	if sp.Err() != nil {
		t.Errorf("policy failed: %v", sp.Err())
	}
}

// TestStorePipelineDropOldest checks the default overflow policy: with a
// slow plugin and a tiny ring, enqueues never stall the caller (the pull
// path) and the overflow is counted, not silently lost.
func TestStorePipelineDropOldest(t *testing.T) {
	d := realDaemon(t, 1)
	path := filepath.Join(t.TempDir(), "dropoldest")
	sp, err := d.AddStoragePolicy("s", "store_testpipe", "bench", path,
		map[string]string{"queue": "8", "batch": "4", "delay": "20ms", "flush_interval": "0"})
	if err != nil {
		t.Fatal(err)
	}

	set := benchSet(t, "n1/bench", 1)
	const rows = 100
	start := time.Now()
	for i := 0; i < rows; i++ {
		set.BeginTransaction()
		set.SetU64(0, uint64(i))
		set.EndTransaction(time.Unix(int64(i), 0))
		d.storeSet(set, false)
	}
	elapsed := time.Since(start)
	// 100 rows at 20 ms each would take 2 s if enqueue waited for the
	// store; drop-oldest must return immediately.
	if elapsed > time.Second {
		t.Errorf("enqueue of %d rows stalled for %v with a slow store", rows, elapsed)
	}

	sp.Flush()
	c := sp.Counters()
	if c.Dropped == 0 {
		t.Error("slow store overflowed an 8-row ring without dropping")
	}
	if c.Rows+c.Dropped != rows {
		t.Errorf("rows %d + dropped %d != %d", c.Rows, c.Dropped, rows)
	}
}

// TestStorePipelineBlockLossless checks overflow=block: every row lands,
// in order, even through a tiny ring.
func TestStorePipelineBlockLossless(t *testing.T) {
	d := realDaemon(t, 1)
	path := filepath.Join(t.TempDir(), "block")
	sp, err := d.AddStoragePolicy("s", "store_testpipe", "bench", path,
		map[string]string{"queue": "4", "batch": "2", "overflow": "block", "delay": "100us"})
	if err != nil {
		t.Fatal(err)
	}

	set := benchSet(t, "n1/bench", 1)
	const rows = 200
	for i := 0; i < rows; i++ {
		set.BeginTransaction()
		set.SetU64(0, uint64(i))
		set.EndTransaction(time.Unix(int64(i), 0))
		d.storeSet(set, false)
	}
	sp.Flush()

	c := sp.Counters()
	if c.Dropped != 0 {
		t.Errorf("block mode dropped %d rows", c.Dropped)
	}
	if c.Rows != rows {
		t.Errorf("rows = %d want %d", c.Rows, rows)
	}
	got := getPipeStore(t, path).stored()
	for i, r := range got {
		if r.Values[0].U64() != uint64(i) {
			t.Fatalf("row %d out of order: value %d", i, r.Values[0].U64())
		}
	}
}

// TestStorePipelineStickyFailure covers the failure surface: a plugin
// error disables the policy, later samples are dropped and counted,
// strgp_status reports state=failed with the error, and the gateway's
// /healthz degrades to 503.
func TestStorePipelineStickyFailure(t *testing.T) {
	d := failDaemon(t)
	path := filepath.Join(t.TempDir(), "failing")
	sp, err := d.AddStoragePolicy("s1", "store_testpipe", "bench", path,
		map[string]string{"fail_after": "0"})
	if err != nil {
		t.Fatal(err)
	}

	set := benchSet(t, "n1/bench", 1)
	for i := 0; i < 10; i++ {
		set.BeginTransaction()
		set.SetU64(0, uint64(i))
		set.EndTransaction(time.Unix(int64(i), 0))
		d.storeSet(set, false)
	}
	waitUntil(t, 5*time.Second, func() bool { return sp.Err() != nil }, "policy to fail")

	// Every sample after the failure is dropped and counted.
	before := sp.Dropped()
	d.storeSet(set, false)
	if got := sp.Dropped(); got != before+1 {
		t.Errorf("dropped after failure = %d want %d", got, before+1)
	}

	out, err := d.Exec("strgp_status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "state=failed") || !strings.Contains(out, "refusing row") {
		t.Errorf("strgp_status does not surface the failure: %q", out)
	}
	if !strings.Contains(out, "dropped=") {
		t.Errorf("strgp_status missing drop counter: %q", out)
	}

	addr, err := d.Exec("http_listen addr=127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, body := httpGet(t, "http://"+addr+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("healthz status = %d want 503: %s", code, body)
	}
	var health struct {
		Status       string   `json:"status"`
		FailedStores []string `json:"failed_stores"`
		Stores       []struct {
			Policy  string `json:"policy"`
			Failed  bool   `json:"failed"`
			Error   string `json:"error"`
			Dropped int64  `json:"dropped"`
		} `json:"stores"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz: %v: %s", err, body)
	}
	if health.Status != "degraded" || len(health.FailedStores) != 1 || health.FailedStores[0] != "s1" {
		t.Errorf("healthz = %s", body)
	}
	if len(health.Stores) != 1 || !health.Stores[0].Failed || health.Stores[0].Error == "" || health.Stores[0].Dropped == 0 {
		t.Errorf("store health = %s", body)
	}
}

// failDaemon builds a real-clock daemon for failure-surface tests.
func failDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := New(Options{Name: "fail-test", Transports: []transport.Factory{transport.MemFactory{Net: transport.NewNetwork()}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// TestStorePipelineDrainOnStop: rows sitting in the queue when the daemon
// stops must reach the plugin file, not vanish.
func TestStorePipelineDrainOnStop(t *testing.T) {
	d, err := New(Options{Name: "drain-test", StoreWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(t.TempDir(), "drain.csv")
	if _, err := d.AddStoragePolicy("s", "store_csv", "bench", csvPath,
		map[string]string{"flush_interval": "1h"}); err != nil {
		t.Fatal(err)
	}

	set := benchSet(t, "n1/bench", 1)
	const rows = 50
	for i := 0; i < rows; i++ {
		set.BeginTransaction()
		set.SetU64(0, uint64(i))
		set.EndTransaction(time.Unix(int64(i), 0))
		d.storeSet(set, false)
	}
	d.Stop()

	b := readFile(t, csvPath)
	lines := strings.Split(strings.TrimSpace(b), "\n")
	if got := len(lines) - 1; got != rows { // minus header
		t.Errorf("CSV has %d data rows after Stop, want %d", got, rows)
	}
}

// TestStorePipelineStatusRunning checks the strgp_status line for a
// healthy policy carries the queue/batch configuration and counters.
func TestStorePipelineStatusRunning(t *testing.T) {
	d := realDaemon(t, 1)
	path := filepath.Join(t.TempDir(), "status")
	sp, err := d.AddStoragePolicy("s1", "store_testpipe", "bench", path,
		map[string]string{"queue": "32", "batch": "8", "overflow": "block"})
	if err != nil {
		t.Fatal(err)
	}
	set := benchSet(t, "n1/bench", 1)
	d.storeSet(set, false)
	sp.Flush()

	out, err := d.Exec("strgp_status")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"name=s1", "plugin=store_testpipe", "schema=bench", "state=running",
		"rows=1", "enqueued=1", "dropped=0", "queue=0/32", "batch_max=8", "overflow=block",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("strgp_status missing %q: %q", want, out)
		}
	}
}

// TestStorePipelineVirtualClockInline: under a virtual scheduler there is
// no store pool, so the queue drains synchronously on enqueue and stored
// counters are exact immediately after AdvanceBy (simulation experiments
// depend on this determinism).
func TestStorePipelineVirtualClockInline(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d, err := New(Options{Name: "virt", Scheduler: sch})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	path := filepath.Join(t.TempDir(), "virt")
	sp, err := d.AddStoragePolicy("s", "store_testpipe", "bench", path, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := benchSet(t, "n1/bench", 1)
	for i := 0; i < 5; i++ {
		set.BeginTransaction()
		set.SetU64(0, uint64(i))
		set.EndTransaction(time.Unix(int64(i), 0))
		d.storeSet(set, false)
		// Inline drain: the row is in the plugin before storeSet returns.
		if got := sp.Rows(); got != int64(i+1) {
			t.Fatalf("after sample %d: rows = %d (virtual clock must drain inline)", i, got)
		}
	}
}
