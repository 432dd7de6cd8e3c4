// Package diag defines the structured diagnostics the pipeline emits when
// it degrades gracefully instead of failing hard: every stage that has to
// drop, repair or refuse part of its input records what happened, at which
// severity, and where in the picture. Diagnostics ride on core.Report so
// batch evaluation, the CLI and the robustness sweep can all see exactly
// how a translation was compromised without losing the partial result.
package diag

import (
	"fmt"

	"tdmagic/internal/geom"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Info records a benign observation (e.g. an empty stage output).
	Info Severity = iota
	// Warning marks a degradation the pipeline worked around; the result
	// is best-effort but structurally valid.
	Warning
	// Error marks a failure that made part of the result unusable (the
	// rest of the translation still completed).
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalText encodes the severity as its name, keeping JSON reports
// readable and byte-stable.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a severity name, so JSON diagnostics round-trip
// (the tdserve client payloads rely on this).
func (s *Severity) UnmarshalText(text []byte) error {
	switch string(text) {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("diag: unknown severity %q", text)
	}
	return nil
}

// Pipeline stage names used in diagnostics.
const (
	StageInput = "input" // up-front picture validation
	StageLAD   = "lad"   // line-and-arrow detection
	StageSED   = "sed"   // signal-edge detection
	StageOCR   = "ocr"   // text reading
	StageSEI   = "sei"   // semantic interpretation
	StageBatch = "batch" // batch-level recovery (panic, deadline)
)

// Diagnostic is one structured degradation record.
type Diagnostic struct {
	// Stage names the pipeline stage that emitted the record (the Stage*
	// constants).
	Stage string
	// Severity grades how much of the result was compromised.
	Severity Severity
	// Message is a human-readable description of the degradation.
	Message string
	// Location is the affected picture region, when one is known; the
	// zero rectangle means the whole picture.
	Location geom.Rect
	// HasLocation distinguishes a deliberate (0,0,0,0) region from "no
	// location recorded".
	HasLocation bool
}

// String renders the diagnostic as "stage/severity: message [@rect]".
func (d Diagnostic) String() string {
	if d.HasLocation {
		return fmt.Sprintf("%s/%s: %s @%v", d.Stage, d.Severity, d.Message, d.Location)
	}
	return fmt.Sprintf("%s/%s: %s", d.Stage, d.Severity, d.Message)
}

// New builds a diagnostic without a location.
func New(stage string, sev Severity, format string, args ...any) Diagnostic {
	return Diagnostic{Stage: stage, Severity: sev, Message: fmt.Sprintf(format, args...)}
}

// At builds a diagnostic anchored to a picture region.
func At(stage string, sev Severity, loc geom.Rect, format string, args ...any) Diagnostic {
	return Diagnostic{Stage: stage, Severity: sev, Message: fmt.Sprintf(format, args...), Location: loc, HasLocation: true}
}
