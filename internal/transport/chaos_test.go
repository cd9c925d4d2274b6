package transport

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/testutil"
)

// chaosEnv is one daemon + renderer session + viewer session triple
// with a fault injector on the renderer's first connection.
type chaosEnv struct {
	daemon    *Daemon
	addr      string
	inj       *fault.Injector
	rend      *Session
	view      *Session
	delivered atomic.Int64
	connects  atomic.Int64 // renderer OnConnect invocations

	logMu sync.Mutex
	logs  []string
}

func (e *chaosEnv) logf(format string, args ...any) {
	e.logMu.Lock()
	e.logs = append(e.logs, format)
	e.logMu.Unlock()
}

func (e *chaosEnv) logged(substr string) bool {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	for _, l := range e.logs {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

// chaosFrameData is the per-frame payload; the on-wire v2 frame length
// is derived from it in chaosWireFrameLen.
var chaosFrameData = make([]byte, 100)

// chaosWireFrameLen is the exact v2 on-wire length of one test frame:
// 6-byte header + ImageMsg payload (21 + len("raw") + data) + CRC32.
const chaosWireFrameLen = 6 + (21 + 3 + 100) + 4

// chaosHelloLen is the v1-framed client hello: 5-byte header + 2-byte
// role/version payload.
const chaosHelloLen = 7

func newChaosEnv(t *testing.T, plan fault.Plan) *chaosEnv {
	t.Helper()
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	env := &chaosEnv{daemon: d, addr: d.Addr().String(), inj: fault.New(plan)}
	t.Cleanup(func() { env.daemon.Close() })

	env.view, err = NewSession(SessionConfig{
		Role: RoleDisplay,
		Addr: env.addr,
		Retry: RetryPolicy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond,
			Factor: 2, Jitter: -1, MaxAttempts: 400},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.view.Close() })
	go func() {
		for m := range env.view.Inbox() {
			if m.Type == MsgImage {
				env.delivered.Add(1)
			}
		}
	}()

	// Only the renderer's FIRST connection runs through the injector:
	// the fault models one bad link period, and reconnection gets a
	// clean socket.
	var dials atomic.Int64
	env.rend, err = NewSession(SessionConfig{
		Role: RoleRenderer,
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", env.addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				c = env.inj.Wrap(c)
			}
			return c, nil
		},
		Retry: RetryPolicy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond,
			Factor: 2, Jitter: -1, MaxAttempts: 400},
		Seed:      7,
		OnConnect: func(*Endpoint) error { env.connects.Add(1); return nil },
		Logf:      env.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.rend.Close() })
	return env
}

// sendRetry pushes one frame, retrying through reconnect windows until
// the session accepts it.
func (e *chaosEnv) sendRetry(t *testing.T, id uint32) {
	t.Helper()
	im := &ImageMsg{FrameID: id, PieceCount: 1, X1: 8, Y1: 8, W: 8, H: 8,
		Codec: "raw", Data: chaosFrameData}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := e.rend.SendImage(im); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("frame %d never accepted by the session", id)
}

func (e *chaosEnv) waitDelivered(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.delivered.Load() < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := e.delivered.Load(); got < n {
		t.Fatalf("delivered %d frames, want >= %d", got, n)
	}
}

// TestChaosRecovery drives the daemon/renderer/viewer triple through
// each injected fault class and checks the pipeline recovers within
// the session's bounded backoff.
func TestChaosRecovery(t *testing.T) {
	testutil.CheckGoroutines(t)
	const half = 6 // frames per phase; 12 total
	cases := []struct {
		name string
		plan fault.Plan
		mid  func(t *testing.T, env *chaosEnv) // between the two halves
		// firstHalfMin / totalMin bound delivery; frames corrupted or
		// lost in flight while the link died are the only slack.
		firstHalfMin  int64
		totalMin      int64
		wantReconnect bool
		wantCorrupt   int64
	}{
		{
			name: "conn-drop-mid-stream",
			// The link dies during the 6th frame; the retrying sender
			// pushes it again after reconnect, so nothing is lost.
			plan:          fault.Plan{DropAfterBytes: chaosHelloLen + 5*chaosWireFrameLen + 10},
			firstHalfMin:  half,
			totalMin:      2 * half,
			wantReconnect: true,
		},
		{
			name: "corrupt-frame-payload",
			// Payload bytes of frames 3 and 8 flip in flight: the CRC
			// catches both at the daemon, which drops them and keeps
			// the connection; they are never displayed.
			plan: fault.Plan{CorruptOffsets: []int64{
				chaosHelloLen + 2*chaosWireFrameLen + 6 + 30,
				chaosHelloLen + 7*chaosWireFrameLen + 6 + 30,
			}},
			firstHalfMin: half - 1,
			totalMin:     2*half - 2,
			wantCorrupt:  2,
		},
		{
			name: "corrupt-length-header",
			// Flipping the length prefix is not survivable in-stream:
			// the daemon rejects the bogus length (ErrTooLarge) and
			// resets the connection; the session reconnects. The
			// corrupted frame plus any in flight behind it are lost.
			plan: fault.Plan{CorruptOffsets: []int64{chaosHelloLen + 3*chaosWireFrameLen}},
			// Hold the second half until the reset has been noticed:
			// until then every write lands in the doomed socket's
			// buffer, and on a busy host that can be all six frames.
			mid: func(t *testing.T, env *chaosEnv) {
				deadline := time.Now().Add(10 * time.Second)
				for time.Now().Before(deadline) {
					if st := env.rend.State(); st.Reconnects >= 1 && st.Connected {
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				t.Fatal("renderer session did not reconnect after the daemon reset it")
			},
			firstHalfMin:  3,
			totalMin:      2*half - 3,
			wantReconnect: true,
		},
		{
			name:         "stall-then-resume",
			plan:         fault.Plan{StallAfterBytes: chaosHelloLen + 2*chaosWireFrameLen, Stall: 200 * time.Millisecond},
			firstHalfMin: half,
			totalMin:     2 * half,
		},
		{
			name: "slow-start-link",
			plan: fault.Plan{SlowStartBytes: chaosHelloLen + 3*chaosWireFrameLen,
				SlowStartBandwidth: 100_000},
			firstHalfMin: half,
			totalMin:     2 * half,
		},
		{
			name: "daemon-restart",
			plan: fault.Plan{},
			mid: func(t *testing.T, env *chaosEnv) {
				env.daemon.Close()
				d, err := ListenAndServe(env.addr)
				if err != nil {
					t.Fatalf("restart daemon: %v", err)
				}
				env.daemon = d
				t.Cleanup(func() { d.Close() })
				deadline := time.Now().Add(10 * time.Second)
				for time.Now().Before(deadline) {
					if env.rend.State().Connected && env.view.State().Connected {
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				t.Fatal("sessions did not reconnect after daemon restart")
			},
			firstHalfMin:  half,
			totalMin:      2 * half,
			wantReconnect: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newChaosEnv(t, tc.plan)
			for i := 0; i < half; i++ {
				env.sendRetry(t, uint32(i))
			}
			env.waitDelivered(t, tc.firstHalfMin)
			if tc.mid != nil {
				tc.mid(t, env)
			}
			for i := half; i < 2*half; i++ {
				env.sendRetry(t, uint32(i))
			}
			env.waitDelivered(t, tc.totalMin)

			st := env.rend.State()
			if tc.wantReconnect {
				if st.Reconnects < 1 {
					t.Errorf("reconnects = %d, want >= 1", st.Reconnects)
				}
				if !env.logged("reconnect attempt") {
					t.Error("no bounded-backoff attempts were logged")
				}
			} else if st.Reconnects != 0 {
				t.Errorf("unexpected reconnects: %d", st.Reconnects)
			}
			if err := env.rend.Err(); err != nil {
				t.Errorf("session hit terminal error: %v", err)
			}
			// OnConnect re-runs after every reconnect (re-advertise).
			if got := env.connects.Load(); got != 1+st.Reconnects {
				t.Errorf("OnConnect ran %d times, want %d", got, 1+st.Reconnects)
			}
			if tc.wantCorrupt > 0 {
				// Let the tail settle, then check corrupted frames were
				// counted at the daemon and never reached the viewer.
				time.Sleep(50 * time.Millisecond)
				if got := env.daemon.Stats().CorruptDropped.Load(); got != tc.wantCorrupt {
					t.Errorf("daemon CorruptDropped = %d, want %d", got, tc.wantCorrupt)
				}
				if got := env.delivered.Load(); got != tc.totalMin {
					t.Errorf("delivered = %d, want exactly %d (corrupt frames must never display)", got, tc.totalMin)
				}
			}
		})
	}
}

// TestChaosPartitionEvictionRecovery: a partition stalls the renderer's
// writes (including heartbeat pongs) while TCP keeps the socket open.
// The daemon's dead-peer monitor evicts it; once the partition heals
// the session notices the dead socket and reconnects cleanly.
func TestChaosPartitionEvictionRecovery(t *testing.T) {
	testutil.CheckGoroutines(t)
	env := newChaosEnv(t, fault.Plan{})
	env.daemon.SetHeartbeat(10*time.Millisecond, 50*time.Millisecond)

	for i := 0; i < 3; i++ {
		env.sendRetry(t, uint32(i))
	}
	env.waitDelivered(t, 3)

	env.inj.Partition()
	deadline := time.Now().Add(10 * time.Second)
	for env.daemon.Stats().PeersEvicted.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if env.daemon.Stats().PeersEvicted.Load() == 0 {
		t.Fatal("daemon never evicted the partitioned renderer")
	}
	if env.daemon.Stats().PingsSent.Load() == 0 {
		t.Fatal("no heartbeat pings recorded")
	}
	env.inj.Heal()

	for time.Now().Before(deadline) {
		st := env.rend.State()
		if st.Connected && st.Reconnects >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := env.rend.State(); !st.Connected || st.Reconnects < 1 {
		t.Fatalf("session did not recover after heal: %+v", st)
	}
	for i := 3; i < 6; i++ {
		env.sendRetry(t, uint32(i))
	}
	env.waitDelivered(t, 6)
}

// TestChaosSessionHeartbeatDetectsStalledLink is the client-side
// mirror of eviction: a peer that handshakes and then never answers
// pings must be declared dead by the session's own silence detector,
// since TCP alone would keep the socket open forever.
func TestChaosSessionHeartbeatDetectsStalledLink(t *testing.T) {
	testutil.CheckGoroutines(t)
	// A fake daemon that completes the handshake and then goes mute.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				if _, err := ReadMessage(c); err != nil {
					return
				}
				WriteMessage(c, Message{Type: MsgHello, Payload: HelloPayload(RoleRenderer, ProtoV2)})
				// Swallow everything, answer nothing.
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	var disconnects atomic.Int64
	s, err := NewSession(SessionConfig{
		Role:        RoleRenderer,
		Addr:        ln.Addr().String(),
		Heartbeat:   10 * time.Millisecond,
		PeerTimeout: 50 * time.Millisecond,
		Retry: RetryPolicy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond,
			Factor: 2, Jitter: -1, MaxAttempts: 200},
		OnDisconnect: func(error) { disconnects.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for disconnects.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if disconnects.Load() == 0 {
		t.Fatal("session heartbeat never declared the mute daemon dead")
	}
}
