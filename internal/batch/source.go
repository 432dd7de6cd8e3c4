package batch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tdmagic/internal/imgproc"
)

// Item is one unit of work flowing through the executor. Exactly one of
// Load or Open should be set (checked in that order); Err marks an
// item the source could enumerate but not prepare — it flows through as a
// per-item failure without stopping the stream.
type Item struct {
	// Index is the item's position in the stream; the executor assigns it
	// and emits results in Index order.
	Index int
	// Name identifies the item in results (file stem, part name, …).
	Name string
	// Load produces the picture on demand; it runs on an executor worker,
	// so expensive decoding or synthesis overlaps across items.
	Load func() (*imgproc.Gray, error)
	// Open streams the picture's encoded bytes (file-backed sources). The
	// executor hashes the raw bytes first and can resolve a warm item
	// through the store's alias index without decoding it at all.
	Open func() (io.ReadCloser, error)
	// Err is a source-level preparation failure for this item.
	Err error
}

// SafeName reports whether an item name is safe to embed as a single
// path component (e.g. "<name>.spec" under an output directory, or an
// uploaded picture file in a job's input directory). Names containing
// path separators, NUL or control bytes, and the directory references "."
// and ".." are rejected — a manifest or multipart item named "../x" must
// never escape the directory it is written into.
func SafeName(name string) error {
	switch name {
	case "":
		return errors.New("batch: empty item name")
	case ".", "..":
		return fmt.Errorf("batch: unsafe item name %q", name)
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c == '/' || c == '\\' || c < ' ' || c == 0x7f:
			return fmt.Errorf("batch: unsafe item name %q", name)
		}
	}
	return nil
}

// Source enumerates a stream of items. Next returns io.EOF when the
// stream is drained and any other error to abort the whole run. Next is
// always called from a single goroutine, in order.
type Source interface {
	Next() (Item, error)
}

// sliceSource serves a pre-built item list.
type sliceSource struct {
	items []Item
	pos   int
}

func (s *sliceSource) Next() (Item, error) {
	if s.pos >= len(s.items) {
		return Item{}, io.EOF
	}
	it := s.items[s.pos]
	s.pos++
	return it, nil
}

// Items wraps a fixed item list as a Source.
func Items(items []Item) Source { return &sliceSource{items: items} }

// funcSource generates items by index.
type funcSource struct {
	n   int
	fn  func(i int) Item
	pos int
}

func (s *funcSource) Next() (Item, error) {
	if s.pos >= s.n {
		return Item{}, io.EOF
	}
	it := s.fn(s.pos)
	s.pos++
	return it, nil
}

// Func yields n items produced by fn(0..n-1). fn should be cheap — put
// expensive work (decoding, corruption, synthesis) behind the item's Load
// so it runs on the worker pool.
func Func(n int, fn func(i int) Item) Source { return &funcSource{n: n, fn: fn} }

// Dir enumerates every *.png in dir (sorted by name, so runs are
// deterministic) as file-backed items named by their stem. The directory
// listing is the only thing held in memory; file bytes stream through the
// executor one bounded worker at a time.
func Dir(dir string) (Source, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".png") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("batch: no .png files in %s", dir)
	}
	return Paths(paths), nil
}

// Paths wraps an explicit file list as a source of file-backed items.
func Paths(paths []string) Source {
	items := make([]Item, len(paths))
	for i, p := range paths {
		p := p
		items[i] = Item{
			Name: strings.TrimSuffix(filepath.Base(p), filepath.Ext(p)),
			Open: func() (io.ReadCloser, error) { return os.Open(p) },
		}
	}
	return Items(items)
}
