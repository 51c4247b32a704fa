package transport

import (
	"sync/atomic"
	"time"

	"goldms/internal/metric"
)

// Server is the passive (serving) side of a transport: it exposes a metric
// set registry to pulling peers and accounts the host cost of doing so.
type Server struct {
	reg *metric.Registry

	// OneSided marks RDMA semantics: update reads are performed by the
	// "HCA" (a dedicated I/O path) and charged to NICCPU rather than
	// HostCPU.
	OneSided bool

	// Trace, when non-nil, appends the owning daemon's current hop chain
	// for set (an obs.AppendHops trace block) to dst and returns the
	// extended slice. Wired by ldmsd; consulted only on connections that
	// negotiated the trace capability.
	Trace func(set *metric.Set, dst []byte) []byte

	dirs         atomic.Int64
	lookups      atomic.Int64
	updates      atomic.Int64
	deltaUpdates atomic.Int64
	bytesOut     atomic.Int64
	deflOffers   atomic.Int64
	deflWins     atomic.Int64
	hostCPU      atomic.Int64 // nanoseconds of host CPU consumed serving pulls, deflate included
	nicCPU       atomic.Int64 // nanoseconds of one-sided (NIC-side) data movement
}

// NewServer wraps a registry for serving.
func NewServer(reg *metric.Registry) *Server {
	return &Server{reg: reg}
}

// Registry returns the served registry.
func (s *Server) Registry() *metric.Registry { return s.reg }

// ServerStats is a snapshot of serving-side counters.
type ServerStats struct {
	Dirs          int64         // dir requests served
	Lookups       int64         // lookup requests served
	Updates       int64         // update (data pull) requests served
	DeltaUpdates  int64         // updates answered with a metric delta
	BytesOut      int64         // payload bytes returned
	DeflateOffers int64         // response frames offered to deflate
	DeflateWins   int64         // offers that shrank the frame and went out compressed
	HostCPU       time.Duration // host CPU consumed by serving (two-sided ops)
	NICCPU        time.Duration // simulated NIC time for one-sided reads
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Dirs:          s.dirs.Load(),
		Lookups:       s.lookups.Load(),
		Updates:       s.updates.Load(),
		DeltaUpdates:  s.deltaUpdates.Load(),
		BytesOut:      s.bytesOut.Load(),
		DeflateOffers: s.deflOffers.Load(),
		DeflateWins:   s.deflWins.Load(),
		HostCPU:       time.Duration(s.hostCPU.Load()),
		NICCPU:        time.Duration(s.nicCPU.Load()),
	}
}

// countDeflate accounts one frame offered to deflate: host CPU, won or lost.
func (s *Server) countDeflate(won bool, d time.Duration) {
	s.deflOffers.Add(1)
	if won {
		s.deflWins.Add(1)
	}
	s.hostCPU.Add(int64(d))
}

// serveDir implements the dir operation.
func (s *Server) serveDir() []string {
	//ldms:wallclock hostCPU/nicCPU account real serving cost (paper overhead model), not sample time
	start := time.Now()
	names := s.reg.Dir()
	s.dirs.Add(1)
	//ldms:wallclock second half of the real serving-cost measurement
	s.hostCPU.Add(int64(time.Since(start)))
	return names
}

// serveDirGen implements the dir-generation poll: a single atomic load on
// the serving side, so tiered peers can check for membership changes every
// pass without paying for a full directory walk.
func (s *Server) serveDirGen() uint64 {
	return s.reg.Gen()
}

// serveLookup implements the lookup operation, returning the set (for
// handle registration) and its serialized metadata.
func (s *Server) serveLookup(name string) (*metric.Set, []byte, error) {
	//ldms:wallclock hostCPU/nicCPU account real serving cost (paper overhead model), not sample time
	start := time.Now()
	set := s.reg.Get(name)
	if set == nil {
		//ldms:wallclock second half of the real serving-cost measurement
		s.hostCPU.Add(int64(time.Since(start)))
		return nil, nil, ErrNoSuchSet
	}
	meta := set.MetaBytes()
	s.lookups.Add(1)
	s.bytesOut.Add(int64(len(meta)))
	//ldms:wallclock second half of the real serving-cost measurement
	s.hostCPU.Add(int64(time.Since(start)))
	return set, meta, nil
}

// appendTraceFor writes a u16-length-prefixed trace block for set onto b:
// a reserved length slot, the Trace hook's bytes (zero-length when no hook
// is wired or the daemon has no chain for the set), then the patched
// length. Callers append the legacy payload immediately after.
func (s *Server) appendTraceFor(b []byte, set *metric.Set) []byte {
	at := len(b)
	b = append(b, 0, 0)
	if s.Trace != nil {
		b = s.Trace(set, b)
	}
	n := len(b) - at - traceLenPrefix
	if n > maxWireString {
		// MaxTraceHops bounds a real block to ~5 kB; a larger result is a
		// bug in the hook. Drop it rather than corrupt the prefix.
		b = b[:at+traceLenPrefix]
		n = 0
	}
	wireLE.PutUint16(b[at:], uint16(n))
	return b
}

// serveUpdateDelta implements the delta update operation: encode the
// metrics changed since the requester's acknowledged DGN, or fall back to
// a full chunk snapshot when the set cannot honor the base (restarted
// incarnation, schema too wide, or a delta that would not beat the full
// chunk). dst must be at least 1+DataSize bytes with a little slack for
// the delta header; the returned payload starts with the kind byte at
// dst[0].
func (s *Server) serveUpdateDelta(set *metric.Set, since uint64, dst []byte) []byte {
	//ldms:wallclock hostCPU/nicCPU account real serving cost (paper overhead model), not sample time
	start := time.Now()
	out, ok := set.AppendDelta(dst[:1], since)
	if ok {
		out[0] = deltaKindDelta
		s.deltaUpdates.Add(1)
	} else {
		// Sized by what was copied: a set deleted under the requester's
		// handle yields an empty chunk, which its LoadData refuses, rather
		// than whatever the pooled buffer held.
		out = dst[:1+set.CopyDataInto(dst[1:1+set.DataSize()])]
		out[0] = deltaKindFull
	}
	s.updates.Add(1)
	s.bytesOut.Add(int64(len(out) - 1))
	if s.OneSided {
		//ldms:wallclock second half of the real serving-cost measurement
		s.nicCPU.Add(int64(time.Since(start)))
	} else {
		//ldms:wallclock second half of the real serving-cost measurement
		s.hostCPU.Add(int64(time.Since(start)))
	}
	return out
}

// serveUpdate implements the update operation: snapshot the set's data
// chunk into dst. One-sided transports charge the cost to the NIC account.
func (s *Server) serveUpdate(set *metric.Set, dst []byte) int {
	//ldms:wallclock hostCPU/nicCPU account real serving cost (paper overhead model), not sample time
	start := time.Now()
	n := set.CopyDataInto(dst)
	s.updates.Add(1)
	s.bytesOut.Add(int64(n))
	if s.OneSided {
		//ldms:wallclock second half of the real serving-cost measurement
		s.nicCPU.Add(int64(time.Since(start)))
	} else {
		//ldms:wallclock second half of the real serving-cost measurement
		s.hostCPU.Add(int64(time.Since(start)))
	}
	return n
}
