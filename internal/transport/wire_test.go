package transport

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(typ byte, id uint64, payload []byte) bool {
		var buf bytes.Buffer
		w := bufio.NewWriterSize(&buf, 16) // a header rarely fits what is left
		if err := writeFrame(w, typ, id, payload); err != nil || w.Flush() != nil {
			return false
		}
		if !bytes.Equal(buf.Bytes(), appendFrame(nil, typ, id, payload)) {
			return false
		}
		gt, gid, gp, err := readFrameBytes(buf.Bytes())
		if err != nil {
			return false
		}
		return gt == typ && gid == id && bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// readFrameBytes reads one frame off a stream holding exactly b.
func readFrameBytes(b []byte) (byte, uint64, []byte, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(b)))
}

func TestReadFrameTruncated(t *testing.T) {
	full := appendFrame(nil, msgDirReq, 1, []byte("hello"))
	for cut := 0; cut < len(full); cut++ {
		_, _, _, err := readFrameBytes(full[:cut])
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		// A stream that ends between frames is a clean EOF; inside a header
		// it is what io.ReadFull called it.
		if want := io.ErrUnexpectedEOF; cut > 0 && cut < frameHeader && err != want {
			t.Fatalf("truncation at %d inside the header: %v, want %v", cut, err, want)
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("empty stream: %v, want io.EOF", err)
		}
	}
}

func TestReadFrameOversizedLength(t *testing.T) {
	hdr := make([]byte, frameHeader)
	wireLE.PutUint32(hdr, 1<<30) // absurd length word
	if _, _, _, err := readFrameBytes(hdr); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadFrameGarbage(t *testing.T) {
	// Random bytes must never panic; errors are fine.
	f := func(junk []byte) bool {
		readFrameBytes(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDirRespRoundTripQuick(t *testing.T) {
	f := func(names []string) bool {
		// Wire strings are u16-length-prefixed.
		for i, n := range names {
			if len(n) > 60000 {
				names[i] = n[:60000]
			}
		}
		enc, err := encodeDirResp(names, 0)
		if err != nil {
			return false
		}
		got, _, err := decodeDirResp(enc)
		if err != nil {
			return false
		}
		if len(got) != len(names) {
			return false
		}
		for i := range names {
			if got[i] != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDirRespGarbage(t *testing.T) {
	f := func(junk []byte) bool {
		decodeDirResp(junk) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// errWriter fails after n bytes, exercising writeFrame's error paths.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteFrameErrors(t *testing.T) {
	// A header that does not fit what the buffer has left flushes on the way.
	w := bufio.NewWriterSize(&errWriter{n: 2}, 16)
	w.WriteString("0123456789")
	if err := writeFrame(w, 1, 1, []byte("x")); err == nil {
		t.Error("header write error swallowed")
	}
	w = bufio.NewWriterSize(&errWriter{n: frameHeader}, 16)
	if err := writeFrame(w, 1, 1, make([]byte, 64)); err == nil {
		t.Error("payload write error swallowed")
	}
	if err := writeFrame(w, 1, 2, nil); err == nil {
		t.Error("frame accepted by a writer that already failed")
	}
}

// TestAppendStringTooLong is the regression test for the silent u16
// truncation bug: a name of 64 KiB or more used to encode a wrapped length
// prefix and corrupt every field after it. It must be refused outright.
func TestAppendStringTooLong(t *testing.T) {
	long := strings.Repeat("x", maxWireString+1)
	if _, err := appendString(nil, long); err != errStringTooLong {
		t.Fatalf("oversized string: err = %v, want errStringTooLong", err)
	}
	// The boundary length still round-trips.
	edge := strings.Repeat("y", maxWireString)
	b, err := appendString(nil, edge)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := readString(b, 0)
	if err != nil || got != edge {
		t.Fatalf("boundary string corrupted: len=%d err=%v", len(got), err)
	}
	// Encoders that carry names refuse rather than truncate.
	if _, err := encodeDirResp([]string{"ok", long}, 0); err == nil {
		t.Error("encodeDirResp accepted an oversized name")
	}
}
