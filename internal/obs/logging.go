package obs

import (
	"context"
	"log/slog"
)

// Structured logging for the pipeline. The conventions mirror the metric
// layer: one shared *slog.Logger is threaded through core/msg/checkpoint
// via options, every component tags its lines with a "component"
// attr, and span-correlated lines carry the span's ID under "span" so a log
// line can be matched against the /traces dump of the admin server. A
// disabled logger is NopLogger(), whose handler rejects every level before
// any attr is materialised, so instrumented code logs unconditionally.

// nopHandler drops everything before formatting.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// NopLogger returns a logger that discards every record. Components default
// to it so logging, like metrics, is free when not wired up.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

// Component derives a tagged child logger; nil yields NopLogger so callers
// can thread an optional logger without branches.
func Component(l *slog.Logger, name string) *slog.Logger {
	if l == nil {
		return NopLogger()
	}
	return l.With(slog.String("component", name))
}
