package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// ErrConnDropped reports that a wire fault closed the client's
// connection mid-send (the injected client-crash shape). The caller
// reconnects and resumes from the server's HELLO_OK position.
var ErrConnDropped = errors.New("ingest: connection dropped by fault injection")

// ClientConfig parameterises Dial.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Hello is the handshake to send (Version defaults to
	// ProtoVersion).
	Hello Hello
	// Timeout bounds dial, the handshake round-trip and each Next read
	// (<=0 means 5s).
	Timeout time.Duration
	// Injector, when set, mangles outgoing frames — the chaos drills'
	// misbehaving-client mode. Truncation faults close the connection
	// after the torn bytes, like a real crash mid-write.
	Injector *faults.WireInjector
}

func (c ClientConfig) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

// Client is a minimal ingest protocol client: good enough for drills,
// benchmarks and as the README's reference implementation. Not safe for
// concurrent use of the same method, but the send side (Send, Queue,
// Flush, Bye) and the read side (Next) may run on two goroutines.
type Client struct {
	cfg   ClientConfig
	nc    net.Conn
	br    *bufio.Reader
	wbuf  []byte
	rbuf  []byte
	width int

	// Batch queue (send side): sequence numbers plus the vectors back
	// to back, encoded into one SAMPLE_BATCH frame on Flush.
	pendSeqs []uint32
	pendVals []uint64

	// Decoded VERDICT_BATCH records awaiting delivery (read side):
	// Next pops these before touching the socket, so batch frames
	// surface as ordinary per-verdict events.
	pendV     []Verdict
	pendVHead int

	writes atomic.Int64

	// Admitted is the server's HELLO_OK reply (valid after Dial).
	Admitted HelloOK
}

// Event is one server-to-client frame, decoded.
type Event struct {
	Type     byte
	HelloOK  HelloOK  // FrameHelloOK
	Verdict  Verdict  // FrameVerdict: one record of a VERDICT_BATCH
	Shed     Shed     // FrameShed
	Retry    Retry    // FrameRetry
	Redirect Redirect // FrameRedirect
	Reason   string   // FrameDrain / FrameError
}

// Dial connects, performs the handshake and returns an admitted
// client. A server rejection (RETRY, DRAIN, ERROR) is returned as a
// *RejectedError so callers can branch on the frame type.
func Dial(cfg ClientConfig) (*Client, error) {
	h := cfg.Hello
	if h.Version == 0 {
		h.Version = ProtoVersion
	}
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.timeout())
	if err != nil {
		return nil, fmt.Errorf("ingest: dial %s: %w", cfg.Addr, err)
	}
	c := &Client{cfg: cfg, nc: nc, br: bufio.NewReaderSize(nc, 4096), width: h.Width}
	if err := c.writeFrames(AppendHello(c.wbuf[:0], h)); err != nil {
		nc.Close()
		return nil, err
	}
	ev, err := c.Next()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("ingest: handshake: %w", err)
	}
	if ev.Type != FrameHelloOK {
		nc.Close()
		return nil, &RejectedError{Event: ev}
	}
	c.Admitted = ev.HelloOK
	return c, nil
}

// RejectedError is a handshake answered with something other than
// HELLO_OK.
type RejectedError struct{ Event Event }

func (e *RejectedError) Error() string {
	switch e.Event.Type {
	case FrameRetry:
		return fmt.Sprintf("ingest: rejected: retry after %dms (%s)", e.Event.Retry.AfterMillis, e.Event.Retry.Reason)
	case FrameDrain:
		return fmt.Sprintf("ingest: rejected: draining (%s)", e.Event.Reason)
	case FrameRedirect:
		return fmt.Sprintf("ingest: rejected: stream owned by %s (%s)", e.Event.Redirect.Addr, e.Event.Redirect.Reason)
	case FrameError:
		return fmt.Sprintf("ingest: rejected: %s", e.Event.Reason)
	}
	return fmt.Sprintf("ingest: rejected with frame 0x%02x", e.Event.Type)
}

// SetInjector arms (or disarms, with nil) wire fault injection on
// subsequent sends. Drills use it to handshake cleanly and then turn a
// well-behaved client into a misbehaving one.
func (c *Client) SetInjector(in *faults.WireInjector) { c.cfg.Injector = in }

// Send transmits one sample as a batch of one: Queue then Flush. With
// an injector configured the frame may be corrupted, delayed,
// duplicated, or torn — in the torn case the connection closes and
// ErrConnDropped comes back.
func (c *Client) Send(seq uint32, vals []uint64) error {
	if err := c.Queue(seq, vals); err != nil {
		return err
	}
	return c.Flush()
}

// WriteCalls returns how many socket Write invocations the client has
// made — the syscall-amortization counter the benchmarks report.
func (c *Client) WriteCalls() int64 { return c.writes.Load() }

// Queue buffers one sample for a batched send; the queue auto-flushes
// at the frame's record limit. Callers finish with Flush (Bye flushes
// implicitly).
func (c *Client) Queue(seq uint32, vals []uint64) error {
	c.pendSeqs = append(c.pendSeqs, seq)
	c.pendVals = append(c.pendVals, vals...)
	if len(c.pendSeqs) >= SampleBatchLimit(c.width) {
		return c.Flush()
	}
	return nil
}

// Flush sends every queued sample as one SAMPLE_BATCH frame in one
// Write; with nothing queued it sends nothing.
func (c *Client) Flush() error {
	if len(c.pendSeqs) == 0 {
		return nil
	}
	c.wbuf = AppendSampleBatch(c.wbuf[:0], c.pendSeqs, c.pendVals, c.width)
	c.pendSeqs = c.pendSeqs[:0]
	c.pendVals = c.pendVals[:0]
	return c.writeFrames(c.wbuf)
}

// Bye announces a clean end of stream (flushing queued samples first).
func (c *Client) Bye() error {
	if err := c.Flush(); err != nil {
		return err
	}
	return c.writeFrames(AppendFrame(c.wbuf[:0], FrameBye, nil))
}

func (c *Client) writeFrames(frame []byte) error {
	out := [][]byte{frame}
	closeAfter := false
	if c.cfg.Injector != nil {
		f := c.cfg.Injector.Apply(frame)
		out = f.Frames
		closeAfter = f.CloseAfter
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
	}
	if err := c.nc.SetWriteDeadline(time.Now().Add(c.cfg.timeout())); err != nil {
		return fmt.Errorf("ingest: send: %w", err)
	}
	for _, fr := range out {
		c.writes.Add(1)
		if _, err := c.nc.Write(fr); err != nil {
			return fmt.Errorf("ingest: send: %w", err)
		}
	}
	if closeAfter {
		c.nc.Close()
		return ErrConnDropped
	}
	return nil
}

// Next reads one server frame, blocking up to the configured timeout.
// VERDICT_BATCH frames are unpacked transparently: each record comes
// back as an ordinary FrameVerdict event.
func (c *Client) Next() (Event, error) {
	if c.pendVHead < len(c.pendV) {
		v := c.pendV[c.pendVHead]
		c.pendVHead++
		return Event{Type: FrameVerdict, Verdict: v}, nil
	}
	c.nc.SetReadDeadline(time.Now().Add(c.cfg.timeout()))
	typ, body, nbuf, err := ReadFrame(c.br, MaxFrameBytes, c.rbuf)
	c.rbuf = nbuf
	if err != nil {
		return Event{}, err
	}
	ev := Event{Type: typ}
	switch typ {
	case FrameVerdictBatch:
		// ParseVerdictBatch rejects empty batches, so pendV[0] exists.
		vb, perr := ParseVerdictBatch(body)
		if perr != nil {
			return Event{}, perr
		}
		c.pendV = c.pendV[:0]
		for {
			v, ok := vb.Next()
			if !ok {
				break
			}
			c.pendV = append(c.pendV, v)
		}
		c.pendVHead = 1
		return Event{Type: FrameVerdict, Verdict: c.pendV[0]}, nil
	case FrameShed:
		ev.Shed, err = ParseShed(body)
	case FrameRetry:
		ev.Retry, err = ParseRetry(body)
	case FrameRedirect:
		ev.Redirect, err = ParseRedirect(body)
	case FrameDrain:
		ev.Reason, err = ParseDrain(body)
	case FrameError:
		ev.Reason, err = ParseError(body)
	case FrameHelloOK:
		ev.HelloOK, err = ParseHelloOK(body)
	default:
		err = fmt.Errorf("%w: unexpected server frame 0x%02x", ErrBadFrame, typ)
	}
	return ev, err
}

// Close hangs up without BYE (the crash shape, when done deliberately).
func (c *Client) Close() error { return c.nc.Close() }
