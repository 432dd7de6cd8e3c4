package obs

import (
	"io"
	"log/slog"
)

// Structured logging: one log/slog configuration shared by every
// execution surface, so a tdserve access-log line and a tdmagic warning
// carry the same field names and the same request-ID correlation key.

// RequestIDKey is the slog attribute key correlating log lines with
// traces and the X-Request-ID header.
const RequestIDKey = "request_id"

// NewLogger returns a JSON-lines slog.Logger writing to w at the given
// level. JSON lines are the exposition every log shipper understands;
// pass os.Stderr in the CLIs so stdout stays parseable output.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}
