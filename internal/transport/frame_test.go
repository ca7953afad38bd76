package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, size := range []int{0, 1, 100, 70000} {
		var w countingWriter
		if err := writeFrame(&w, -7, bytes.Repeat([]byte{'x'}, size)); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("%d-byte payload: %d writes, want 1", size, w.writes)
		}
		from, payload, err := readFrame(&w.Buffer)
		if err != nil || from != -7 || len(payload) != size {
			t.Fatalf("%d-byte payload read back as (%d, %d bytes, %v)", size, from, len(payload), err)
		}
	}
}

// TestReadFrameDoesNotTrustTheLength is the stalled-peer regression: a header
// announcing maxFrame followed by 10 bytes and EOF must fail as a truncated
// frame without allocating anywhere near the announced length.
func TestReadFrameDoesNotTrustTheLength(t *testing.T) {
	stream := make([]byte, frameHeader+10)
	binary.BigEndian.PutUint32(stream[:4], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("truncated %d-byte frame allocated %d bytes", maxFrame, alloc)
	}
}

// bytesCodec passes payloads through.
type bytesCodec struct{}

func (bytesCodec) Encode(msg any) ([]byte, error)  { return msg.([]byte), nil }
func (bytesCodec) Decode(data []byte) (any, error) { return data, nil }

// countingConn counts the Read calls that returned and the Write calls made.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeListener hands out one pre-made connection, then blocks until closed.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestRPCCallIsOneReadAndOneWritePerSide runs closed-loop calls over a
// synchronous in-memory pipe, where a Read returns what one Write sent: a
// frame that fits the read buffer must cost each side exactly one Write and
// one Read.
func TestRPCCallIsOneReadAndOneWritePerSide(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	cc, sc := &countingConn{Conn: clientEnd}, &countingConn{Conn: serverEnd}
	ln := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	ln.conns <- sc
	srv := serveRPC(ln, bytesCodec{}, func(req any) (any, error) {
		return append([]byte("re:"), req.([]byte)...), nil
	})
	defer srv.Close()
	c := newRPCClient(cc, bytesCodec{})
	defer c.Close()

	sizes := []int{0, 1, 100, 939, 4000, rpcReadBuffer - frameHeader - 3}
	for i, size := range sizes {
		req := bytes.Repeat([]byte{byte('a' + i)}, size)
		resp, err := c.Call(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte("re:"), req...); !bytes.Equal(resp.([]byte), want) {
			t.Fatalf("call %d: wrong response", i)
		}
		calls := int64(i + 1)
		for _, side := range []struct {
			name string
			conn *countingConn
		}{{"client", cc}, {"server", sc}} {
			if r, w := side.conn.reads.Load(), side.conn.writes.Load(); r != calls || w != calls {
				t.Fatalf("after %d calls (last payload %d bytes) the %s made %d reads and %d writes, want %d of each",
					calls, size, side.name, r, w, calls)
			}
		}
	}

	// A frame larger than the read buffer still arrives intact.
	big := bytes.Repeat([]byte{'z'}, 3*rpcReadBuffer)
	resp, err := c.Call(big)
	if err != nil || !bytes.Equal(resp.([]byte), append([]byte("re:"), big...)) {
		t.Fatalf("large call: %v", err)
	}
}
