// Package obs is the unified observability layer: a span-based tracer
// that exports Chrome trace-event JSON (loadable in chrome://tracing
// and Perfetto), a central metrics registry with Prometheus text-format
// exposition, a component-prefixed logger, and an opt-in HTTP debug
// server that mounts all three.
//
// The tracer is clock-agnostic: spans carry timestamps as offsets from
// an arbitrary epoch, so the same Tracer records real executions
// against the wall clock (Begin/End pairs via WallClock) and virtual
// executions against the internal/sim discrete-event clock (explicit
// Add with the simulator's scheduled intervals). A track groups spans
// onto one row of the trace viewer — one per processor group, broker
// client, or daemon — so a pipelined run renders as the paper's Gantt
// diagram: disk read, render, composite and send overlapping across
// groups.
//
// The registry absorbs the previously scattered instrumentation
// surfaces (transport.DaemonStats, stream.BrokerStats, the broker's
// per-client snapshots) behind one exposition endpoint:
// counters and gauges may be backed by live closures over existing
// atomics, histograms wrap metrics.Sample with p50/p95/p99 summaries,
// and collectors emit dynamic per-client series at scrape time.
package obs

import "time"

// Clock supplies trace timestamps as offsets from an arbitrary epoch.
// Implementations must be safe for concurrent use.
type Clock interface {
	Now() time.Duration
}

type wallClock struct{ epoch time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.epoch) }

// WallClock returns a clock counting real time from its creation — the
// tracer clock for live runs.
func WallClock() Clock { return wallClock{epoch: time.Now()} }

// ManualClock is a settable clock for tests and virtual-time tracing.
type ManualClock struct{ at time.Duration }

// Set moves the clock to t.
func (c *ManualClock) Set(t time.Duration) { c.at = t }

// Now implements Clock.
func (c *ManualClock) Now() time.Duration { return c.at }
