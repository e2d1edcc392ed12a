// Package transport implements the small RPC layer Waterwheel exposes to
// network clients (the role Apache Storm's data transport played in the
// paper's prototype). Frames are length-prefixed binary messages
// multiplexed over a single TCP connection: a client may have many
// requests in flight; responses are matched by request ID.
//
// One frame, both directions, all integers big-endian:
//
//	[u32 len][u32 magic+version][u64 id][u16 method-len][method]
//	[u8 status][u32 err-len][err][payload]
//
// len counts everything after itself; the payload is whatever remains
// after err. Requests carry status 0 and no err; responses carry no
// method. A receiver drops the connection on a frame it cannot parse — a
// wrong magic or version included, so the layout can only change together
// with the version byte.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// MaxFrameBytes bounds a single frame (64 MiB).
const MaxFrameBytes = 64 << 20

// frameMagic opens every frame body: "WWF" and the protocol version
// (2 since the batch-error status carries the rejected positions).
const frameMagic uint32 = 'W'<<24 | 'W'<<16 | 'F'<<8 | 2

// minBody is a frame body with an empty method, err and payload.
const minBody = 4 + 8 + 2 + 1 + 4

// readChunk is the most readFrame allocates before any body byte has
// arrived; larger bodies are grown as their bytes come in.
const readChunk = 1 << 20

// Status codes of a response frame. Codes from StatusApp up belong to the
// handlers registered on a server (see DESIGN.md for the assigned ones).
const (
	StatusOK            uint8 = 0
	StatusFailed        uint8 = 1 // the handler failed; only the message crosses
	StatusUnknownMethod uint8 = 2
	StatusBadRequest    uint8 = 3 // the handler could not decode its payload
	StatusApp           uint8 = 16
)

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("transport: client closed")

// ErrBadFrame reports bytes that are not a frame of this protocol version.
var ErrBadFrame = errors.New("transport: malformed frame")

// StatusError is a failed call. A handler returns one to choose the
// response's status code and attach a payload (any other error crosses as
// StatusFailed); Call returns one for every non-OK response. Cause is the
// sentinel the code stands for, once a Sentinels table has named it.
type StatusError struct {
	Code    uint8
	Msg     string
	Payload []byte
	Cause   error
}

func (e *StatusError) Error() string { return e.Msg }

func (e *StatusError) Unwrap() error { return e.Cause }

// Sentinels is a table of application status codes and the sentinel errors
// they stand for, so errors.Is works across the wire. The two ends of a verb
// share one table: the handler passes what it returns through Encode, the
// caller passes what Call returns through Decode.
type Sentinels map[uint8]error

// Code returns the status code of the sentinel err wraps, StatusFailed if
// it wraps none.
func (s Sentinels) Code(err error) uint8 {
	for code, sentinel := range s {
		if errors.Is(err, sentinel) {
			return code
		}
	}
	return StatusFailed
}

// Encode gives an err that wraps one of the sentinels its status code;
// any other error is returned as it is.
func (s Sentinels) Encode(err error) error {
	if code := s.Code(err); code != StatusFailed {
		return &StatusError{Code: code, Msg: err.Error()}
	}
	return err
}

// Decode names the sentinel behind a failed call's status code: the
// *StatusError that Call returned gets it as its Cause.
func (s Sentinels) Decode(err error) error {
	var se *StatusError
	if errors.As(err, &se) {
		se.Cause = s[se.Code]
	}
	return err
}

// BadRequestf is the error a handler returns for a payload it cannot
// decode: a StatusBadRequest with the formatted message.
func BadRequestf(format string, a ...any) error {
	return &StatusError{Code: StatusBadRequest, Msg: fmt.Sprintf(format, a...)}
}

// frame is the wire unit for both directions. After readFrame, Method and
// Payload alias the frame's one body allocation.
type frame struct {
	ID      uint64
	Method  []byte
	Status  uint8
	Err     string
	Payload []byte
}

// writeFrame writes f as a header followed by the payload itself: the
// payload is never copied into a body buffer (on a TCP connection the two
// go out in one writev).
func writeFrame(w io.Writer, f *frame) error {
	n := minBody + len(f.Method) + len(f.Err) + len(f.Payload)
	if n > MaxFrameBytes || len(f.Method) > 0xFFFF {
		return fmt.Errorf("transport: frame too large (%d bytes)", n)
	}
	hdr := make([]byte, 0, 4+minBody+len(f.Method)+len(f.Err))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.BigEndian.AppendUint32(hdr, frameMagic)
	hdr = binary.BigEndian.AppendUint64(hdr, f.ID)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(f.Method)))
	hdr = append(hdr, f.Method...)
	hdr = append(hdr, f.Status)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(f.Err)))
	hdr = append(hdr, f.Err...)
	bufs := net.Buffers{hdr, f.Payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame into a body that the returned Method and
// Payload alias. A body of up to readChunk bytes is one allocation; a
// larger one starts at readChunk and doubles as its bytes arrive, so a
// length prefix alone never commits more than readChunk, at the price of
// copying what has arrived at each doubling (under 2n bytes allocated and
// under n copied for a body of n).
func readFrame(r io.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrameBytes || n < minBody {
		return nil, fmt.Errorf("%w: body of %d bytes", ErrBadFrame, n)
	}
	body := make([]byte, min(n, readChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got = len(body); got == n {
			break
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, body)
		body = grown
	}
	if m := binary.BigEndian.Uint32(body); m != frameMagic {
		return nil, fmt.Errorf("%w: magic/version %#08x, want %#08x", ErrBadFrame, m, frameMagic)
	}
	f := &frame{ID: binary.BigEndian.Uint64(body[4:])}
	rest := body[14:]
	mlen := int(binary.BigEndian.Uint16(body[12:]))
	if len(rest) < mlen+5 {
		return nil, fmt.Errorf("%w: method overruns body", ErrBadFrame)
	}
	f.Method, rest = rest[:mlen:mlen], rest[mlen:]
	f.Status = rest[0]
	elen := int(binary.BigEndian.Uint32(rest[1:]))
	rest = rest[5:]
	if len(rest) < elen {
		return nil, fmt.Errorf("%w: error text overruns body", ErrBadFrame)
	}
	f.Err, f.Payload = string(rest[:elen]), rest[elen:]
	return f, nil
}

// Handler serves one method: it receives the request payload and returns
// the response payload.
type Handler func(payload []byte) ([]byte, error)

// Server accepts connections and dispatches frames to registered handlers.
// Each request is served on its own goroutine, so slow queries do not
// block inserts sharing the connection.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	conns    map[net.Conn]struct{}
	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
}

// NewServer creates a server with no handlers.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Handle registers a handler for a method name.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

// Listen binds the address ("127.0.0.1:0" for an ephemeral port) and
// starts accepting. Returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 1<<16)
	var wmu sync.Mutex // serializes response frames
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		s.mu.RLock()
		h := s.handlers[string(f.Method)]
		s.mu.RUnlock()
		reqWG.Add(1)
		go func() {
			defer reqWG.Done()
			resp := serve(h, f)
			wmu.Lock()
			defer wmu.Unlock()
			// A failed write means the connection is gone; the read loop
			// sees the same and ends the connection's service.
			_ = writeFrame(conn, resp)
		}()
	}
}

// serve runs one request through its handler and builds the response.
func serve(h Handler, req *frame) *frame {
	resp := &frame{ID: req.ID}
	if h == nil {
		resp.Status, resp.Err = StatusUnknownMethod, fmt.Sprintf("unknown method %q", req.Method)
		return resp
	}
	out, err := h(req.Payload)
	var se *StatusError
	switch {
	case err == nil:
		resp.Payload = out
	case errors.As(err, &se):
		resp.Status, resp.Err, resp.Payload = se.Code, err.Error(), se.Payload
	default:
		resp.Status, resp.Err = StatusFailed, err.Error()
	}
	if len(resp.Payload) > MaxFrameBytes-minBody-len(resp.Err) {
		// Answer with the refusal: a dropped response would leave the
		// caller waiting for ever.
		n := len(resp.Payload)
		resp.Status, resp.Err, resp.Payload = StatusFailed, fmt.Sprintf("transport: response too large (%d bytes)", n), nil
	}
	return resp
}

// Close stops accepting, drops every open connection, and waits for the
// serving goroutines to exit.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Client is a multiplexing RPC client over one TCP connection.
type Client struct {
	conn net.Conn
	wmu  sync.Mutex // serializes request frames

	mu      sync.Mutex
	pending map[uint64]chan *frame
	nextID  atomic.Uint64
	closed  atomic.Bool
	readErr error
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan *frame),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 1<<16)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

// Call sends a request and waits for the matching response payload, which
// is the caller's to keep: it aliases nothing the client reuses. A non-OK
// response comes back as a *StatusError.
func (c *Client) Call(method string, payload []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	id := c.nextID.Add(1)
	ch := make(chan *frame, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: connection broken: %w", err)
	}
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeFrame(c.conn, &frame{ID: id, Method: []byte(method), Payload: payload})
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}

	f, ok := <-ch
	if !ok {
		return nil, fmt.Errorf("transport: connection closed awaiting response")
	}
	if f.Status != StatusOK {
		return nil, &StatusError{Code: f.Status, Msg: f.Err, Payload: f.Payload}
	}
	return f.Payload, nil
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.conn.Close()
}
