package obs

import (
	"gmp/internal/span"
	"gmp/internal/trace"
)

// Probe is the one instrumentation channel of a run: every layer that
// records (the radio medium, the MAC stations, the forwarding nodes, the
// flow sources and the GMP runtimes) holds a Probe by value, installed
// with its SetProbe. The zero value is "all off". Each field is one
// consumer, nil when that consumer is off, and every hook site checks
// the field it calls, so a run with telemetry on and spans off pays no
// span call.
//
// Every consumer only observes: none draws randomness, schedules
// protocol events or mutates protocol state, so a run with any probe
// reproduces the same run with the zero probe exactly.
type Probe struct {
	// Telemetry is the telemetry recorder (Config.Telemetry).
	Telemetry *Recorder
	// Spans is the causal-trace recorder (Config.Spans).
	Spans *span.Recorder
	// Events is the channel and drop event ring (Config.EventTrace).
	Events *trace.Ring
}
