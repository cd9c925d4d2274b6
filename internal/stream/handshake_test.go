package stream_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// A broker refuses a hello of another wire version: it logs why,
// closes the connection without a welcome, and never lists the client.
func TestBrokerRefusesOtherVersionHello(t *testing.T) {
	testutil.CheckGoroutines(t)
	var mu sync.Mutex
	var logs []string
	b, err := stream.ListenAndServe("127.0.0.1:0", stream.Config{Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, role := range []transport.Role{transport.RoleDisplay, transport.RoleRenderer} {
		conn, err := net.Dial("tcp", b.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		hello := transport.Message{Type: transport.MsgHello, Payload: []byte{byte(role), 1}}
		if err := transport.WriteMessage(conn, hello); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if m, err := transport.ReadMessage(conn); err == nil {
			t.Fatalf("refused %v got a type %d reply", role, m.Type)
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("broker kept the refused %v's connection open", role)
		}
		conn.Close()
	}
	if snaps := b.ClientSnapshots(); len(snaps) != 0 {
		t.Fatalf("refused display listed: %+v", snaps)
	}
	mu.Lock()
	defer mu.Unlock()
	refusals := 0
	for _, l := range logs {
		if strings.Contains(l, "refused") && strings.Contains(l, "version 1") {
			refusals++
		}
	}
	if refusals != 2 {
		t.Fatalf("%d refusals logged, want 2: %q", refusals, logs)
	}
}

// Close unblocks a handler still waiting for the rest of a hello.
func TestBrokerCloseUnblocksHalfReadHello(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := stream.NewBroker(stream.Config{})
	client, server := net.Pipe()
	defer client.Close()
	b.ServeConn(server)
	// A pipe write returns once the handler has read the bytes, so the
	// handler is now blocked on the remaining header bytes.
	if _, err := client.Write([]byte{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a half-read hello")
	}
}
