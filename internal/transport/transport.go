// Package transport implements the LDMS pull-model data transports.
//
// A connection links an aggregator to a collection target (a sampler or
// another aggregator). Three operations exist, mirroring Fig. 2 of the
// paper:
//
//	dir     list the instance names of the target's metric sets
//	lookup  fetch a set's metadata chunk once, establishing a handle
//	update  fetch only the set's data chunk (~10% of the set size)
//
// Implementations:
//
//	sock  TCP with a small binary framing protocol (the paper's sock
//	      transport plugin)
//	mem   in-process, zero-copy, deterministic; used for virtual-time
//	      experiments and tests
//	rdma / ugni  simulated RDMA: layered on sock or mem but with one-sided
//	      update semantics — data fetches bypass the target's request
//	      handler path and consume no host CPU there, mirroring
//	      "If the transport is RDMA over IB or UGNI, the data fetching
//	      will not consume CPU cycles" (paper Fig. 2)
package transport

import (
	"context"
	"errors"
	"sync/atomic"

	"goldms/internal/metric"
)

// ErrNoSuchSet is reported by lookup for an unknown instance name.
var ErrNoSuchSet = errors.New("transport: no such set")

// ErrClosed is reported on operations over a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is the client (pulling) side of a transport connection.
type Conn interface {
	// Dir lists the remote registry's set instance names.
	Dir(ctx context.Context) ([]string, error)
	// Lookup fetches the named set's metadata and returns a handle for
	// subsequent updates.
	Lookup(ctx context.Context, name string) (RemoteSet, error)
	// LookupBatch is Lookup for many sets under one round-trip latency:
	// every op's request is issued before any response is awaited. Each op
	// carries its own result; a set missing on the peer is ErrNoSuchSet on
	// that op alone, and only a connection-level failure (or ctx ending)
	// fails the ops still pending. Callers normally go through LookupAll.
	LookupBatch(ctx context.Context, ops []LookupOp)
	// UpdateBatch fetches every op's data chunk, issuing each request before
	// awaiting any response, so the batch pays one round-trip latency and
	// one write flush. An op whose handle came from another connection, or
	// that the peer answers with an error frame, fails alone; only a
	// connection-level failure (or ctx ending) fails the ops still pending.
	// Callers normally go through UpdateAll.
	UpdateBatch(ctx context.Context, ops []UpdateOp)
	// DirGen polls the remote registry's directory generation (bumped on
	// every set add/remove). An aggregator in a tiered topology checks it
	// once per pull pass and only re-runs the full dir/lookup handshake when
	// membership actually changed, so joins and leaves propagate one pull
	// interval per hop with O(1) steady-state cost.
	DirGen(ctx context.Context) (uint64, error)
	// ConnStats snapshots the connection's transfer counters.
	ConnStats() ConnStats
	// Close releases the connection.
	Close() error
}

// RemoteSet is a handle to one metric set on the remote peer, the product
// of a lookup. Its data moves through the connection's UpdateBatch.
type RemoteSet interface {
	// Meta returns the metadata fetched at lookup time.
	Meta() *metric.Meta
}

// errForeignHandle fails an update op whose handle another connection made.
var errForeignHandle = errors.New("transport: set handle belongs to another connection")

// LookupOp is one metadata fetch in a pipelined batch: Name is filled by the
// caller; Set and Err carry the per-op result, exactly as Conn.Lookup would
// return them.
type LookupOp struct {
	Name string
	Set  RemoteSet
	Err  error
}

// LookupAll looks up every op's set over conn in one pipelined batch, the
// cold-start half of the pull path beside UpdateAll.
func LookupAll(ctx context.Context, conn Conn, ops []LookupOp) {
	if len(ops) > 0 {
		conn.LookupBatch(ctx, ops)
	}
}

// UpdateOp is one data pull in a pipelined batch: Set and Dst are filled by
// the caller; N (the bytes fetched into Dst, which must hold at least
// Set.Meta().DataSize bytes) and Err carry the per-op result.
//
// A caller whose Dst already holds the data chunk from a previous completed
// pull may set AckDGN to that chunk's DGN and HaveAck true; transports that
// negotiated delta updates then ask the server for only the metrics changed
// since, patch them into Dst, and report WasDelta. Connections without the
// capability ignore the ack and perform a full pull — Dst ends up holding
// the current chunk either way.
type UpdateOp struct {
	Set      RemoteSet
	Dst      []byte
	AckDGN   uint64 // DGN of the chunk Dst currently holds
	HaveAck  bool   // Dst holds a complete prior chunk at AckDGN
	N        int
	Err      error
	WasDelta bool // this pull moved a delta, not a full chunk
	// Trace receives the server's hop-chain trace block for this pull when
	// the connection negotiated the trace capability: the transport appends
	// the block's bytes to Trace (reusing its capacity — pass a recycled
	// slice truncated to length 0) before the op completes. Left at length
	// 0 on connections without the capability and on errors. The bytes
	// decode with obs.HopDecoder.
	Trace []byte
}

// UpdateAll fetches every op's data chunk over conn in one pipelined batch.
func UpdateAll(ctx context.Context, conn Conn, ops []UpdateOp) {
	conn.UpdateBatch(ctx, ops)
}

// failOps records err on every op that has no result yet.
func failOps(ops []UpdateOp, err error) {
	for i := range ops {
		if ops[i].Err == nil && ops[i].N == 0 {
			ops[i].Err = err
		}
	}
}

// ConnStats is a snapshot of one connection's transfer counters, the
// transport-level half of the daemon's observability surface (prdcr_status
// and the gateway's /metrics).
type ConnStats struct {
	BytesIn    int64 // payload + framing bytes received (wire bytes: post-compression)
	BytesOut   int64 // payload + framing bytes sent
	MsgsIn     int64 // messages (frames / direct-call replies) received
	MsgsOut    int64 // messages sent
	Batches    int64 // pipelined update batches issued
	BatchedOps int64 // update ops carried by those batches
	// Update-efficiency counters, maintained on the pulling side: every
	// completed data pull counts as an update; the ones the peer answered
	// with a metric delta rather than a full chunk also count as delta
	// updates. BytesIn / Updates is the connection's bytes-per-sample.
	Updates      int64
	DeltaUpdates int64
}

// Add accumulates o into s (for totals across reconnect epochs).
func (s *ConnStats) Add(o ConnStats) {
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.MsgsIn += o.MsgsIn
	s.MsgsOut += o.MsgsOut
	s.Batches += o.Batches
	s.BatchedOps += o.BatchedOps
	s.Updates += o.Updates
	s.DeltaUpdates += o.DeltaUpdates
}

// BytesPerSample is the average wire cost of one completed data pull over
// this connection's lifetime, the headline efficiency figure of the delta
// update path. Zero before any pull completes.
func (s ConnStats) BytesPerSample() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.BytesIn) / float64(s.Updates)
}

// connStats is the embeddable atomic counter block behind ConnStats.
type connStats struct {
	bytesIn, bytesOut, msgsIn, msgsOut, batches, batchedOps atomic.Int64
	updates, deltaUpdates                                   atomic.Int64
}

// ConnStats snapshots the counters.
func (s *connStats) ConnStats() ConnStats {
	return ConnStats{
		BytesIn:      s.bytesIn.Load(),
		BytesOut:     s.bytesOut.Load(),
		MsgsIn:       s.msgsIn.Load(),
		MsgsOut:      s.msgsOut.Load(),
		Batches:      s.batches.Load(),
		BatchedOps:   s.batchedOps.Load(),
		Updates:      s.updates.Load(),
		DeltaUpdates: s.deltaUpdates.Load(),
	}
}

// countUpdate records one completed data pull and whether it was a delta.
func (s *connStats) countUpdate(wasDelta bool) {
	s.updates.Add(1)
	if wasDelta {
		s.deltaUpdates.Add(1)
	}
}

// countOut records one sent message of n payload+framing bytes.
func (s *connStats) countOut(n int) {
	s.msgsOut.Add(1)
	s.bytesOut.Add(int64(n))
}

// countIn records one received message of n payload+framing bytes.
func (s *connStats) countIn(n int) {
	s.msgsIn.Add(1)
	s.bytesIn.Add(int64(n))
}

// Listener accepts connections for a Server until closed.
type Listener interface {
	// Addr returns the bound address (for tests and logs).
	Addr() string
	// Close stops accepting and tears down the listener.
	Close() error
}

// Factory creates listeners and outbound connections for one transport
// type. ldmsd resolves the user's transport name ("sock", "rdma", "ugni",
// "mem") to a Factory.
type Factory interface {
	// Name returns the transport type name.
	Name() string
	// Listen serves srv on addr.
	Listen(addr string, srv *Server) (Listener, error)
	// Dial connects to a peer serving on addr.
	Dial(addr string) (Conn, error)
	// MaxFanIn is the empirically supported collection fan-in for this
	// transport (paper §IV-A: ~9,000:1 sock and RDMA over IB, >15,000:1
	// RDMA over Gemini).
	MaxFanIn() int
}

// PeerFactory is implemented by transports that support connection
// initiation from either side (paper §IV-B: "LDMS incorporates mechanisms
// to enable initiation of a connection from either side in order to
// support asymmetric network access"). A sampler behind a connection
// barrier uses DialNamed to reach its aggregator and serve its sets over
// the resulting connection; the aggregator uses ListenPeer and pulls from
// each announced peer as if it had dialed out.
type PeerFactory interface {
	Factory
	// ListenPeer serves srv and reports each dialing peer that announces
	// itself.
	ListenPeer(addr string, srv *Server, onPeer func(name string, conn Conn)) (Listener, error)
	// DialNamed connects, announces name, and serves srv (which may be
	// nil) over the same connection.
	DialNamed(addr, name string, srv *Server) (Conn, error)
}
