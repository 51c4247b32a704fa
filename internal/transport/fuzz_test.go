package transport

import (
	"io"
	"testing"
	"time"

	"goldms/internal/metric"
)

// FuzzReadFrame throws hostile byte streams at the frame reader. Any input
// may error; none may panic, and a frame that decodes must be bounded by
// what was actually read (the length word alone must never cause a large
// up-front allocation — readPayload grows incrementally, so a lying header
// on a short stream fails after at most one chunk).
func FuzzReadFrame(f *testing.F) {
	seed := appendFrame(nil, msgDirResp, 7, []byte("hello"))
	f.Add(seed)
	f.Add(seed[:3])
	huge := make([]byte, frameHeader)
	wireLE.PutUint32(huge, 1<<30)
	f.Add(huge)
	lying := make([]byte, frameHeader+10)
	wireLE.PutUint32(lying, maxFrame) // in-bounds length, truncated body
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, _, payload, err := readFrameBytes(data)
		if err != nil {
			if len(data) > 0 && len(data) < frameHeader && err != io.ErrUnexpectedEOF {
				t.Fatalf("stream ending inside a header: %v, want %v", err, io.ErrUnexpectedEOF)
			}
			return
		}
		if len(payload) > len(data) {
			t.Fatalf("decoded %d payload bytes from %d input bytes", len(payload), len(data))
		}
		// Whatever decoded may also be fed to the decompressor dispatch
		// (the read loop's next step) without panicking.
		if _, _, err := maybeInflate(typ|compressFlag, payload); err == nil && typ&compressFlag == 0 {
			_ = err
		}
	})
}

// FuzzDecodeDelta drives every decoder that consumes peer-controlled update
// and directory payloads: delta application against a live schema,
// dictionary-coded directory responses, and compressed-frame inflation.
// Hostile input must error — never panic, never write outside the chunk.
func FuzzDecodeDelta(f *testing.F) {
	sch := metric.NewSchema("fuzz")
	sch.MustAddMetric("a", metric.TypeU64)
	sch.MustAddMetric("b", metric.TypeU8)
	sch.MustAddMetric("c", metric.TypeD64)
	set, err := metric.New("fuzz0", sch)
	if err != nil {
		f.Fatal(err)
	}
	set.BeginTransaction()
	set.SetU64(0, 42)
	set.EndTransaction(time.Unix(1, 0))
	meta, err := metric.ParseMeta(set.MetaBytes())
	if err != nil {
		f.Fatal(err)
	}

	// Seed with one genuine delta payload so the corpus explores the happy
	// path's neighborhood.
	srv := NewServer(metric.NewRegistry())
	buf := getBuf(1 + set.DataSize() + 64)
	out := srv.serveUpdateDelta(set, 0, buf)
	f.Add(append([]byte(nil), out...))
	putBuf(buf)
	f.Add([]byte{deltaKindFull})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		chunk := make([]byte, meta.DataSize)
		if err := meta.ApplyDelta(chunk, data); err == nil {
			// Applied deltas must leave a loadable chunk.
			mir, merr := meta.NewMirror()
			if merr != nil {
				t.Fatal(merr)
			}
			if lerr := mir.LoadData(chunk); lerr != nil {
				t.Fatalf("applied delta produced unloadable chunk: %v", lerr)
			}
		}
		var rd recvDict
		decodeDirDictResp(data, &rd) // must not panic
		maybeInflate(msgDirResp|compressFlag, data)
	})
}
