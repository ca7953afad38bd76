package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Codec serialises protocol messages for a byte-oriented transport. The
// protocol layer owns the message types, so it supplies the codec.
type Codec interface {
	Encode(msg any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// AppendEncoder is a Codec that can append a message's encoding to dst. The
// RPC layer uses it to encode straight behind a reserved frame header, so a
// frame is built without copying its payload.
type AppendEncoder interface {
	AppendEncode(dst []byte, msg any) ([]byte, error)
}

// maxFrame bounds a single message frame (16 MiB) as a corruption guard.
const maxFrame = 16 << 20

// TCP delivers messages over real loopback TCP connections: every node owns
// a listener on 127.0.0.1, messages are length-prefixed frames carrying the
// sender id and a codec-encoded payload. Delivery is FIFO per sender-
// receiver pair (one frame stream per connection); handlers for one node run
// serially, different nodes concurrently — the same contract as the
// goroutine transport, but with the messages actually crossing the network
// stack.
type TCP struct {
	handler   Handler
	codec     Codec
	listeners map[int]net.Listener
	addrs     map[int]string
	inboxes   map[int]*inbox

	inflight atomic.Int64
	count    atomic.Int64
	done     chan struct{}
	ran      sync.Once

	// mu guards only the conns map and the isClosed flag. It is never held
	// across a dial or a frame write: each cached connection carries its own
	// mutex, so senders on disjoint (from, to) pairs proceed independently
	// and one slow peer cannot stall the whole process.
	mu       sync.Mutex
	conns    map[[2]int]*sendConn // (from, to) -> cached sending connection
	isClosed bool

	// dial is swappable so tests can stall or fail individual dials; it is
	// net.Dial("tcp", addr) in production.
	dial func(addr string) (net.Conn, error)

	acceptors sync.WaitGroup
	closed    chan struct{}
}

// sendConn is one cached sending connection. Its mutex serialises dialling
// and frame writes on this (from, to) pair only, preserving the per-pair FIFO
// contract without a process-global lock.
type sendConn struct {
	mu     sync.Mutex
	conn   net.Conn // nil until the first Send dials
	closed bool     // set by Close; later Sends fail deterministically
}

var _ Transport = (*TCP)(nil)

// NewTCP opens one loopback listener per node. Call Close (or Run, which
// closes on completion) to release the sockets.
func NewTCP(nodes []int, handler Handler, codec Codec) (*TCP, error) {
	t := &TCP{
		handler:   handler,
		codec:     codec,
		listeners: make(map[int]net.Listener, len(nodes)),
		addrs:     make(map[int]string, len(nodes)),
		inboxes:   make(map[int]*inbox, len(nodes)),
		done:      make(chan struct{}, 1),
		conns:     make(map[[2]int]*sendConn),
		closed:    make(chan struct{}),
		dial:      func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
	}
	for _, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: listen for node %d: %w", n, err)
		}
		t.listeners[n] = ln
		t.addrs[n] = ln.Addr().String()
		t.inboxes[n] = newInbox()
		t.acceptors.Add(1)
		go t.acceptLoop(n, ln)
	}
	return t, nil
}

// Addr returns the loopback address a node listens on (for tests and
// diagnostics).
func (t *TCP) Addr(node int) string { return t.addrs[node] }

// Send implements Transport: it encodes the message and writes one frame on
// the cached connection from `from` to `to`, dialling on first use. The map
// lock is released before dialling or writing, so concurrent sends on
// disjoint pairs make progress even while one peer is slow; frames on the
// same pair stay FIFO behind the pair's own lock. Sending on a transport that
// has been Closed panics deterministically with a clear message instead of
// racing a write against a closing socket or re-dialling a closed listener.
func (t *TCP) Send(from, to int, msg any) {
	addr, ok := t.addrs[to]
	if !ok {
		panic(fmt.Sprintf("transport: send to unknown node %d", to))
	}
	payload, err := t.codec.Encode(msg)
	if err != nil {
		panic(fmt.Sprintf("transport: encode: %v", err))
	}
	// Count before the frame can possibly be delivered.
	t.inflight.Add(1)

	t.mu.Lock()
	if t.isClosed {
		t.mu.Unlock()
		panic(fmt.Sprintf("transport: Send %d->%d after Close", from, to))
	}
	key := [2]int{from, to}
	sc, ok := t.conns[key]
	if !ok {
		sc = &sendConn{}
		t.conns[key] = sc
	}
	t.mu.Unlock()

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		// Close won the race after we picked the entry up: fail the same
		// way a post-Close send does, not with a socket error.
		panic(fmt.Sprintf("transport: Send %d->%d after Close", from, to))
	}
	if sc.conn == nil {
		conn, err := t.dial(addr)
		if err != nil {
			panic(fmt.Sprintf("transport: dial node %d: %v", to, err))
		}
		sc.conn = conn
	}
	if err := writeFrame(sc.conn, from, payload); err != nil {
		panic(fmt.Sprintf("transport: write to node %d: %v", to, err))
	}
}

// After implements Transport: a wall-clock timer holding an in-flight token,
// so Run cannot declare quiescence while the timer is armed.
func (t *TCP) After(delay int64, fn func()) (cancel func() bool) {
	t.inflight.Add(1)
	var settled atomic.Bool
	timer := time.AfterFunc(time.Duration(delay)*time.Microsecond, func() {
		if settled.Swap(true) {
			return
		}
		fn()
		t.release()
	})
	return func() bool {
		if !settled.CompareAndSwap(false, true) {
			return false
		}
		timer.Stop()
		t.release()
		return true
	}
}

// release returns one in-flight token and wakes Run when the count reaches
// zero.
func (t *TCP) release() {
	if t.inflight.Add(-1) == 0 {
		select {
		case t.done <- struct{}{}:
		default:
		}
	}
}

// Run implements Transport: node workers drain their inboxes until
// quiescence, then all sockets are closed.
func (t *TCP) Run() int {
	ranBefore := true
	t.ran.Do(func() { ranBefore = false })
	if ranBefore {
		panic("transport: Run called twice")
	}
	var workers sync.WaitGroup
	for nid, b := range t.inboxes {
		workers.Add(1)
		go func(nid int, b *inbox) {
			defer workers.Done()
			for {
				e, ok := b.get()
				if !ok {
					return
				}
				t.count.Add(1)
				t.handler(e.from, nid, e.msg)
				t.release()
			}
		}(nid, b)
	}
	for t.inflight.Load() != 0 {
		<-t.done
	}
	for _, b := range t.inboxes {
		b.close()
	}
	workers.Wait()
	t.Close()
	return int(t.count.Load())
}

// Now implements Transport; real TCP has no virtual clock.
func (t *TCP) Now() int64 { return 0 }

// Close shuts every listener and cached connection and drops the stale
// entries from the connection cache. Safe to call more than once. A Send
// racing with Close either completes its write before the connection closes
// (the pair lock serialises them) or fails deterministically with a
// "Send after Close" panic — never with a raw socket error or a re-dial of a
// closed listener.
func (t *TCP) Close() {
	select {
	case <-t.closed:
		return
	default:
		close(t.closed)
	}
	for _, ln := range t.listeners {
		_ = ln.Close()
	}
	// Flag first, then detach the cache, both under mu: any Send entering
	// afterwards observes isClosed before it can reach a stale entry.
	t.mu.Lock()
	t.isClosed = true
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	for _, sc := range conns {
		// Taking the pair lock lets an in-progress write on this pair
		// finish before its socket closes under it.
		sc.mu.Lock()
		if sc.conn != nil {
			_ = sc.conn.Close()
		}
		sc.closed = true
		sc.mu.Unlock()
	}
	t.acceptors.Wait()
}

// acceptLoop accepts inbound connections for one node and spawns a reader
// per connection.
func (t *TCP) acceptLoop(nid int, ln net.Listener) {
	defer t.acceptors.Done()
	var readers sync.WaitGroup
	defer readers.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer conn.Close()
			for {
				from, payload, err := readFrame(conn)
				if err != nil {
					return // EOF or shutdown
				}
				msg, err := t.codec.Decode(payload)
				if err != nil {
					// A corrupt frame is a protocol bug; surface loudly.
					panic(fmt.Sprintf("transport: decode at node %d: %v", nid, err))
				}
				t.inboxes[nid].put(envelope{from: from, msg: msg})
			}
		}()
	}
}

// frameHeader is the length of a frame header: [len u32][from i64].
const frameHeader = 12

// readChunk is how much payload readFrame allocates before any of it has
// arrived; the buffer then doubles as bytes come in, up to the announced
// length.
const readChunk = 64 << 10

// writeFrame writes [len u32][from i64][payload] with a single Write.
func writeFrame(w io.Writer, from int, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("frame too large: %d bytes", len(payload))
	}
	frame := make([]byte, frameHeader, frameHeader+len(payload))
	putHeader(frame, from, len(payload))
	_, err := w.Write(append(frame, payload...))
	return err
}

// putHeader fills the header slot at the front of frame.
func putHeader(frame []byte, from, n int) {
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	binary.BigEndian.PutUint64(frame[4:frameHeader], uint64(int64(from)))
}

// encodeFrame encodes msg as one complete frame into buf's storage: the
// header slot first, then the payload appended behind it.
func encodeFrame(buf []byte, codec Codec, id int, msg any) ([]byte, error) {
	frame := append(buf[:0], make([]byte, frameHeader)...)
	var err error
	if ae, ok := codec.(AppendEncoder); ok {
		frame, err = ae.AppendEncode(frame, msg)
	} else {
		var payload []byte
		if payload, err = codec.Encode(msg); err == nil {
			frame = append(frame, payload...)
		}
	}
	if err != nil {
		return buf, err
	}
	if n := len(frame) - frameHeader; n > maxFrame {
		return buf, fmt.Errorf("frame too large: %d bytes", n)
	}
	putHeader(frame, id, len(frame)-frameHeader)
	return frame, nil
}

// readFrame reads one frame written by writeFrame. The payload buffer grows
// as bytes arrive, so a peer that announces a large frame and stalls holds
// at most readChunk of memory, not the announced length.
func readFrame(r io.Reader) (from int, payload []byte, err error) {
	header := make([]byte, frameHeader)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(header[:4]))
	if n > maxFrame {
		return 0, nil, errors.New("oversized frame")
	}
	from = int(int64(binary.BigEndian.Uint64(header[4:])))
	payload = make([]byte, 0, min(n, readChunk))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(n-len(payload), len(payload)))
		}
		got, err := io.ReadFull(r, payload[len(payload):min(n, cap(payload))])
		payload = payload[:len(payload)+got]
		if err != nil {
			if err == io.EOF {
				// A stream ending exactly after a header that promised a
				// payload is a truncated frame, not a clean shutdown.
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	return from, payload, nil
}
