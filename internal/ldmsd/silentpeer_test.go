package ldmsd

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"goldms/internal/obs"
	"goldms/internal/transport"
)

// tarpit listens on loopback and accepts connections it never answers: a
// stopped ldmsd or a wedged host. Each accept is signalled on accepted (a
// send that never blocks); stop closes the listener and every accepted socket.
func tarpit(t *testing.T, accepted chan<- struct{}) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			select {
			case accepted <- struct{}{}:
			default:
			}
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		<-done
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}
}

// TestSilentPeersDoNotStarveConnect: two producers pointed at peers that
// accept TCP and never answer are configured first and take both
// connection workers; their first dir is bounded, so a healthy producer
// added afterwards connects within two reconnect intervals plus that bound.
// Each silent peer's timeout is journaled with its reason, and after Stop
// the daemon's goroutines are gone.
func TestSilentPeersDoNotStarveConnect(t *testing.T) {
	const reconnect = 200 * time.Millisecond
	bound := max(reconnect, time.Second)
	baseline := runtime.NumGoroutine()
	func() {
		healthy, err := transport.SockFactory{}.Listen("127.0.0.1:0", transport.NewServer(benchRegistry(t, "ok", 2)))
		if err != nil {
			t.Fatal(err)
		}
		defer healthy.Close()
		agg, err := New(Options{Name: "agg", Transports: []transport.Factory{transport.SockFactory{}}})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Stop()
		var silent []*Producer
		accepted := make(chan struct{}, 2) // one per silent peer's first attempt
		for i := 0; i < 2; i++ {
			addr, stop := tarpit(t, accepted)
			defer stop()
			p, err := agg.AddProducer(fmt.Sprintf("silent%d", i), "sock", addr, reconnect, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			silent = append(silent, p)
		}
		// Both silent attempts have dialled: each holds a connection worker
		// waiting for its dir response.
		<-accepted
		<-accepted
		p, err := agg.AddProducer("ok", "sock", healthy.Addr(), reconnect, false)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		p.Start()
		waitUntil(t, 2*reconnect+bound, func() bool { return p.State() == ProducerConnected },
			"the healthy producer to connect past two silent peers")
		t.Logf("healthy producer connected after %v", time.Since(start))
		for _, s := range silent {
			waitUntil(t, 2*bound, func() bool {
				for _, ev := range agg.journal.Query(0, obs.SevWarn, obs.CompProducer, s.name) {
					if strings.Contains(ev.Message, "no dir response within") {
						return true
					}
				}
				return false
			}, s.name+"'s dir timeout in the journal")
			if st := s.State(); st == ProducerConnected {
				t.Errorf("%s: state %v against a silent peer", s.name, st)
			}
		}
	}()
	waitUntil(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline },
		fmt.Sprintf("goroutines back to the baseline of %d", baseline))
}
