package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Request/response framing for long-lived serving on top of the package's
// length-prefixed frame format. Where the Transport implementations deliver
// fire-and-forget protocol messages until quiescence, an RPCServer answers an
// open-ended stream of client calls: each request frame carries a caller-
// chosen correlation id (in the slot the message transports use for the
// sender id) and is answered by exactly one response frame echoing that id.
//
// Requests on one connection are handled serially in arrival order, so a
// connection needs no response-side locking and a closed-loop client (one
// outstanding call) never observes reordering; concurrency comes from many
// connections, each served by its own goroutine. The payload is opaque bytes
// produced by a Codec — the serving layer owns the message types, exactly as
// the protocol layer owns them for the Transport implementations.
//
// Each frame costs one syscall on each side: it is written with a single
// Write (an AppendEncoder codec encodes straight behind the header slot), and
// read through one bufio.Reader per connection, which takes a whole frame
// that fits its buffer in one Read.

// rpcReadBuffer is each connection's read buffer; a frame that fits it
// arrives in one Read.
const rpcReadBuffer = 16 << 10

// maxKeptFrame bounds the frame buffer a connection keeps between calls; a
// larger frame's buffer is dropped after it is sent.
const maxKeptFrame = 64 << 10

// RPCHandler answers one decoded request. It runs on the connection's
// goroutine; returning an error closes that connection (protocol-level
// failures should be encoded into the response message instead).
type RPCHandler func(req any) (resp any, err error)

// RPCServer answers codec-framed request/response calls over loopback (or
// any) TCP.
type RPCServer struct {
	ln      net.Listener
	codec   Codec
	handler RPCHandler

	closed atomic.Bool
	conns  sync.WaitGroup

	// track live connections so Close can unblock their readers.
	mu   sync.Mutex
	live map[net.Conn]struct{}
}

// NewRPCServer listens on addr ("127.0.0.1:0" picks a free port; read it back
// with Addr) and serves each connection serially with handler until Close.
func NewRPCServer(addr string, codec Codec, handler RPCHandler) (*RPCServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: rpc listen %s: %w", addr, err)
	}
	return serveRPC(ln, codec, handler), nil
}

// serveRPC serves every connection ln accepts until Close.
func serveRPC(ln net.Listener, codec Codec, handler RPCHandler) *RPCServer {
	s := &RPCServer{ln: ln, codec: codec, handler: handler, live: make(map[net.Conn]struct{})}
	s.conns.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the address the server accepts connections on.
func (s *RPCServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection and waits for the
// per-connection goroutines to drain. Safe to call more than once.
func (s *RPCServer) Close() {
	if s.closed.Swap(true) {
		return
	}
	_ = s.ln.Close()
	s.mu.Lock()
	for c := range s.live {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.conns.Wait()
}

func (s *RPCServer) acceptLoop() {
	defer s.conns.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.live[conn] = struct{}{}
		s.mu.Unlock()
		s.conns.Add(1)
		go s.serveConn(conn)
	}
}

func (s *RPCServer) serveConn(conn net.Conn) {
	defer s.conns.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.live, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, rpcReadBuffer)
	var frame []byte
	for {
		id, payload, err := readFrame(r)
		if err != nil {
			return // EOF, client went away, or server closing
		}
		req, err := s.codec.Decode(payload)
		if err != nil {
			return // corrupt client; drop the connection
		}
		resp, err := s.handler(req)
		if err != nil {
			return
		}
		if frame, err = encodeFrame(frame, s.codec, id, resp); err != nil {
			return
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
		if cap(frame) > maxKeptFrame {
			frame = nil
		}
	}
}

// ErrCallTimeout is returned by RPCClient.Call when a per-call timeout set
// with SetTimeout elapses before the response arrives. The connection stays
// usable: the late response is discarded by correlation id when it finally
// lands, so a subsequent Call is answered by its own response, not a stale
// one.
var ErrCallTimeout = errors.New("transport: rpc call timed out")

// clientFrame is one frame (or terminal read error) delivered by the client's
// reader goroutine.
type clientFrame struct {
	id      int
	payload []byte
	err     error
}

// RPCClient is one client connection to an RPCServer. A client is safe for
// use by one goroutine at a time (a closed loop); open one client per
// concurrent caller — connections are the server's unit of parallelism.
//
// Responses are drained by a dedicated reader goroutine and matched to calls
// by correlation id, so a Call that gave up on its response (ErrCallTimeout)
// does not poison the connection: the abandoned response is skipped as stale
// when the next Call drains the channel.
type RPCClient struct {
	conn    net.Conn
	codec   Codec
	mu      sync.Mutex // serializes Call; guards next, timeout and frame
	next    int
	timeout time.Duration
	frame   []byte // the last request frame's storage, reused by the next

	frames chan clientFrame
	closed chan struct{}
	once   sync.Once
}

// DialRPC connects to an RPCServer.
func DialRPC(addr string, codec Codec) (*RPCClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: rpc dial %s: %w", addr, err)
	}
	return newRPCClient(conn, codec), nil
}

// newRPCClient runs the client side of the protocol over conn.
func newRPCClient(conn net.Conn, codec Codec) *RPCClient {
	c := &RPCClient{
		conn:   conn,
		codec:  codec,
		frames: make(chan clientFrame),
		closed: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop delivers every incoming frame to the (single) caller blocked in
// Call. A read error is delivered once and ends the loop; Close ends it even
// when no Call is waiting to receive.
func (c *RPCClient) readLoop() {
	r := bufio.NewReaderSize(c.conn, rpcReadBuffer)
	for {
		id, payload, err := readFrame(r)
		select {
		case c.frames <- clientFrame{id: id, payload: payload, err: err}:
		case <-c.closed:
			return
		}
		if err != nil {
			return
		}
	}
}

// SetTimeout bounds how long each subsequent Call waits for its response;
// zero (the default) waits forever. On expiry Call returns ErrCallTimeout
// and the connection remains usable for further calls.
func (c *RPCClient) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Call sends one request and blocks for its response. The correlation id the
// response echoes is verified, so a framing bug surfaces as an error here
// rather than as a silently mismatched response; responses to calls that
// already timed out carry older ids and are skipped.
func (c *RPCClient) Call(req any) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next + 1
	frame, err := encodeFrame(c.frame, c.codec, id, req)
	if err != nil {
		return nil, fmt.Errorf("transport: rpc encode: %w", err)
	}
	c.next = id
	if cap(frame) <= maxKeptFrame {
		c.frame = frame
	}
	if _, err := c.conn.Write(frame); err != nil {
		return nil, fmt.Errorf("transport: rpc send: %w", err)
	}
	var timeoutC <-chan time.Time
	if c.timeout > 0 {
		timer := time.NewTimer(c.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	for {
		select {
		case f := <-c.frames:
			if f.err != nil {
				return nil, fmt.Errorf("transport: rpc receive: %w", f.err)
			}
			if f.id < id {
				continue // stale response to a call that timed out
			}
			if f.id > id {
				return nil, fmt.Errorf("transport: rpc response id %d does not match request id %d", f.id, id)
			}
			resp, err := c.codec.Decode(f.payload)
			if err != nil {
				return nil, fmt.Errorf("transport: rpc decode: %w", err)
			}
			return resp, nil
		case <-timeoutC:
			return nil, fmt.Errorf("transport: rpc call %d: %w", id, ErrCallTimeout)
		case <-c.closed:
			return nil, fmt.Errorf("transport: rpc call %d: client closed", id)
		}
	}
}

// Close releases the connection and stops the reader goroutine. Safe to call
// more than once.
func (c *RPCClient) Close() {
	c.once.Do(func() {
		close(c.closed)
		_ = c.conn.Close()
	})
}
