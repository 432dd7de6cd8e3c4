// Package dataset defines the labelled-sample model shared by the synthetic
// generator (L-TD-G), the industrial-style corpus, the trainers and the
// evaluation harness: a rendered timing-diagram image together with its
// ground truth — typed edge boxes, role-tagged text boxes, annotation lines,
// arrows, and the reference SPO.
package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/spo"
)

// EdgeBox is a ground-truth signal-edge bounding box (what SED must find).
type EdgeBox struct {
	Box    geom.Rect
	Type   spo.EdgeType
	Signal int // index of the signal the edge belongs to
}

// TextRole classifies a text annotation, following the three categories the
// paper scores separately in Table III.
type TextRole int

// Text roles. Thresholds and boundary values both annotate signal levels and
// are scored as signal values.
const (
	RoleSignalName TextRole = iota
	RoleSignalValue
	RoleTimeConstraint
)

// String returns the Table III row name of the role.
func (r TextRole) String() string {
	switch r {
	case RoleSignalName:
		return "Signal Name"
	case RoleSignalValue:
		return "Signal Value"
	case RoleTimeConstraint:
		return "Time Constraint"
	default:
		return fmt.Sprintf("TextRole(%d)", int(r))
	}
}

// TextBox is a ground-truth text annotation (what OCR must read). Text uses
// the internal/font rich markup, e.g. "t_{D(on)}".
type TextBox struct {
	Box  geom.Rect
	Text string
	Role TextRole
}

// Arrow is a ground-truth double-headed timing-constraint arrow between two
// vertical annotation lines.
type Arrow struct {
	Y      int // row of the arrow shaft
	X0, X1 int // columns of the two vertical lines it connects
	Label  string
}

// Sample is one labelled timing diagram.
type Sample struct {
	Name   string
	Image  *imgproc.Gray
	Edges  []EdgeBox
	Texts  []TextBox
	VLines []geom.VSeg // event annotation lines
	HLines []geom.HSeg // threshold annotation lines
	Arrows []Arrow
	Truth  *spo.SPO
}

// sampleJSON is the serialised label form (the image is stored as PNG
// alongside).
type sampleJSON struct {
	Name   string
	Edges  []EdgeBox
	Texts  []TextBox
	VLines []geom.VSeg
	HLines []geom.HSeg
	Arrows []Arrow
	Truth  *spo.SPO
}

// Save writes the sample to dir as <name>.png and <name>.json.
func (s *Sample) Save(dir string) error {
	if s.Name == "" {
		return fmt.Errorf("dataset: sample has no name")
	}
	var buf bytes.Buffer
	if err := s.Image.EncodePNG(&buf); err != nil {
		return fmt.Errorf("dataset: encode %s: %w", s.Name, err)
	}
	if err := os.WriteFile(filepath.Join(dir, s.Name+".png"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	js, err := json.MarshalIndent(sampleJSON{
		Name: s.Name, Edges: s.Edges, Texts: s.Texts,
		VLines: s.VLines, HLines: s.HLines, Arrows: s.Arrows, Truth: s.Truth,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, s.Name+".json"), js, 0o644)
}

// Load reads a sample previously written by Save.
func Load(dir, name string) (*Sample, error) {
	png, err := os.Open(filepath.Join(dir, name+".png"))
	if err != nil {
		return nil, err
	}
	defer png.Close()
	img, err := imgproc.DecodePNG(png)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", name, err)
	}
	js, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		return nil, err
	}
	var meta sampleJSON
	if err := json.Unmarshal(js, &meta); err != nil {
		return nil, fmt.Errorf("dataset: %s labels: %w", name, err)
	}
	return &Sample{
		Name: meta.Name, Image: img, Edges: meta.Edges, Texts: meta.Texts,
		VLines: meta.VLines, HLines: meta.HLines, Arrows: meta.Arrows, Truth: meta.Truth,
	}, nil
}

// CountEdgeTypes tallies ground-truth edge boxes by type across samples.
func CountEdgeTypes(samples []*Sample) map[spo.EdgeType]int {
	counts := make(map[spo.EdgeType]int)
	for _, s := range samples {
		for _, e := range s.Edges {
			counts[e.Type]++
		}
	}
	return counts
}
