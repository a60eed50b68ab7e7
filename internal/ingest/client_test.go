package ingest

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestClientRejectsEmptyVerdictBatch: a peer that answers HELLO and then
// streams zero-record VERDICT_BATCH frames gets ErrBadFrame from Next on
// the first one — the reader neither skips it nor loops on the socket.
func TestClientRejectsEmptyVerdictBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer nc.Close()
		if _, err := nc.Read(make([]byte, 256)); err != nil { // the HELLO
			served <- err
			return
		}
		wire := AppendHelloOK(nil, HelloOK{Window: 64, Width: testWidth})
		for i := 0; i < 64; i++ {
			wire = AppendVerdictBatch(wire, nil)
		}
		_, err = nc.Write(wire)
		served <- err
	}()
	c, err := Dial(ClientConfig{
		Addr:    ln.Addr().String(),
		Hello:   Hello{Width: testWidth, Tenant: "t", Stream: "s0"},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty VERDICT_BATCH: got %v, want ErrBadFrame", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("fake server: %v", err)
	}
}
