// Package testutil holds shared test helpers. The main one is the
// goroutine-leak checker: transport, relay and stream tests end with a
// CheckGoroutines teardown so a session reader left blocked on a dead
// conn, or a sender that never drained, fails the test that leaked it
// instead of the unlucky one that runs next. RaceEnabled lets
// wall-clock assertions step aside under the race detector.
package testutil

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goroutines parses a full runtime stack dump into one entry per
// goroutine: its numeric ID and its stack body.
func goroutines() map[int64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[int64]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		// Header: "goroutine 123 [chan receive]:"
		rest, ok := strings.CutPrefix(g, "goroutine ")
		if !ok {
			continue
		}
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		id, err := strconv.ParseInt(rest[:sp], 10, 64)
		if err != nil {
			continue
		}
		out[id] = g
	}
	return out
}

// interesting reports whether a leaked goroutine's stack implicates
// this repo. Runtime-internal and testing-harness goroutines churn on
// their own schedule and are never ours to account for.
func interesting(stack string) bool {
	if !strings.Contains(stack, "repro/") {
		return false
	}
	for _, benign := range []string{
		"testing.(*T).Run",    // subtest parents parked in Run
		"runtime.gc",          // collector helpers
		"testing.runFuzzing",  // fuzz workers
		"testutil.goroutines", // the checker itself
	} {
		if strings.Contains(stack, benign) {
			return false
		}
	}
	return true
}

// CheckGoroutines snapshots the live goroutines and registers a
// t.Cleanup teardown: after the test body AND all later-registered
// cleanups (the Closes) have run, it polls (up to ~2s, letting closes
// finish unwinding) until every goroutine started during the test that
// runs repro/ code has exited, and fails the test with the leaked
// stacks otherwise. Call it first thing in the test:
//
//	func TestX(t *testing.T) {
//		testutil.CheckGoroutines(t)
//		...
//	}
func CheckGoroutines(t *testing.T) {
	t.Helper()
	before := goroutines()
	t.Cleanup(func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, stack := range goroutines() {
				if _, old := before[id]; old {
					continue
				}
				if interesting(stack) {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		sort.Strings(leaked)
		t.Errorf("%d goroutine(s) leaked by this test:\n\n%s",
			len(leaked), fmt.Sprint(strings.Join(leaked, "\n\n")))
	})
}
