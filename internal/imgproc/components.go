package imgproc

import (
	"math/bits"
	"sort"
	"sync"

	"tdmagic/internal/geom"
)

// hrun is a maximal horizontal run of set pixels, the labelling unit of the
// connected-component pass. Runs are stored in global row-major order
// ((y, x0) ascending), so a run's slice index doubles as its discovery rank.
type hrun struct {
	y      int32
	x0, x1 int32 // inclusive column range
}

// Region is one connected component of set pixels (8-connectivity),
// reduced to its aggregate geometry: the pipeline's consumers (contour
// extraction, edge proposals, text regions) only need the bounding box and
// the pixel count, so the labelling pass never materialises the member
// pixels.
type Region struct {
	Box  geom.Rect // bounding box of the component
	Area int       // number of pixels in the component
}

// Regions labels b with 8-connectivity and returns every connected
// component of set pixels, sorted top-to-bottom then left-to-right by
// bounding-box origin. Components with fewer than minArea pixels are
// dropped.
//
// The labelling unit is the horizontal run: runs are extracted with
// trailing-zero word scans and vertically adjacent runs are unioned row
// pair by row pair. Union-by-minimum-index keeps every set's root at the
// component's first run in row-major order, so component discovery order —
// and therefore the sorted output — is identical to the historical
// per-pixel flood fill.
func Regions(b *Binary, minArea int) []Region {
	ls := labelPool.Get().(*labelScratch)
	defer labelPool.Put(ls)
	runs, parent := ls.label(b)
	if runs == nil {
		return nil
	}
	accs := ls.accumulate(runs, parent)
	regs := make([]Region, 0, len(accs))
	for _, a := range accs {
		if int(a.area) >= minArea {
			regs = append(regs, Region{Box: a.box, Area: int(a.area)})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Box.Y0 != regs[j].Box.Y0 {
			return regs[i].Box.Y0 < regs[j].Box.Y0
		}
		return regs[i].Box.X0 < regs[j].Box.X0
	})
	return regs
}

// labelScratch is the working memory of one labelling pass: the run and
// parent arrays, row offsets and per-component aggregates. labelPool
// recycles it, so labelling a picture of a size the pool has seen
// allocates only the Regions returned.
type labelScratch struct {
	rowOff []int32
	runs   []hrun
	parent []int32
	accs   []compAcc
}

var labelPool = sync.Pool{New: func() any { return new(labelScratch) }}

// resize returns s with length n, reusing its array when it is large
// enough; the content is undefined.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// label extracts the maximal horizontal runs of b in row-major order and
// unions 8-connected runs. It returns nil runs when the image is blank or
// degenerate. Both slices live in ls.
func (ls *labelScratch) label(b *Binary) (runs []hrun, parent []int32) {
	if b.W <= 0 || b.H <= 0 {
		return nil, nil
	}
	// Pass 1: run extraction, with per-row offsets into the one row-major
	// run slice for O(1) row lookup.
	rowOff := resize(ls.rowOff, b.H+1)
	runs = ls.runs[:0]
	if cap(runs) < 4*b.H {
		runs = make([]hrun, 0, 4*b.H)
	}
	rowOff[0] = 0
	for y := 0; y < b.H; y++ {
		row := b.Row(y)
		x := nextSet(row, 0, b.W)
		for x < b.W {
			end := nextClear(row, x+1, b.W)
			runs = append(runs, hrun{y: int32(y), x0: int32(x), x1: int32(end - 1)})
			x = nextSet(row, end+1, b.W)
		}
		rowOff[y+1] = int32(len(runs))
	}
	ls.rowOff, ls.runs = rowOff, runs
	if len(runs) == 0 {
		return nil, nil
	}
	parent = resize(ls.parent, len(runs))
	ls.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}

	// Pass 2: union vertically adjacent runs, row pair by row pair.
	for y := 1; y < b.H; y++ {
		unionRows(runs, parent, rowOff, y)
	}
	return runs, parent
}

// compAcc is the per-component aggregate built by accumulate.
type compAcc struct {
	box  geom.Rect
	area int32
}

// accumulate folds area and bounding box per component, in discovery order
// (row-major order of each component's first run), and relabels parent in
// place: afterwards parent[i] is the index of run i's component in the
// returned aggregates. Union-by-min keeps parent[i] <= i, with equality
// exactly at roots, so one ascending sweep meets every root before its
// members, and a member's parent entry already holds its component's index
// by the time the member is reached.
func (ls *labelScratch) accumulate(runs []hrun, parent []int32) []compAcc {
	accs := ls.accs[:0]
	for i, r := range runs {
		ci := parent[i]
		if int(ci) == i {
			ci = int32(len(accs))
			accs = append(accs, compAcc{box: geom.Rect{
				X0: int(r.x0), Y0: int(r.y),
				X1: int(r.x1), Y1: int(r.y),
			}})
		} else {
			ci = parent[ci]
			a := &accs[ci]
			if int(r.x0) < a.box.X0 {
				a.box.X0 = int(r.x0)
			}
			if int(r.x1) > a.box.X1 {
				a.box.X1 = int(r.x1)
			}
			a.box.Y1 = int(r.y) // runs arrive in ascending y
		}
		parent[i] = ci
		accs[ci].area += r.x1 - r.x0 + 1
	}
	ls.accs = accs
	return accs
}

// unionRows unions every 8-connected run pair between row y-1 and row y with
// a linear merge of the two sorted run lists.
func unionRows(runs []hrun, parent []int32, rowOff []int32, y int) {
	i, iEnd := rowOff[y-1], rowOff[y]
	j, jEnd := rowOff[y], rowOff[y+1]
	for i < iEnd && j < jEnd {
		// 8-connectivity: the run above touches [x0-1, x1+1] of the run below.
		if runs[i].x1+1 >= runs[j].x0 && runs[i].x0 <= runs[j].x1+1 {
			union(parent, i, j)
		}
		if runs[i].x1 < runs[j].x1 {
			i++
		} else {
			j++
		}
	}
}

// findRoot returns the set root with path halving.
func findRoot(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// union merges the sets of a and b, keeping the smaller root index — so a
// set's root is always its first run in row-major order.
func union(parent []int32, a, b int32) {
	ra, rb := findRoot(parent, a), findRoot(parent, b)
	if ra == rb {
		return
	}
	if ra < rb {
		parent[rb] = ra
	} else {
		parent[ra] = rb
	}
}

// HRuns returns every maximal horizontal run of set pixels in b that is at
// least minLen pixels long.
func HRuns(b *Binary, minLen int) []geom.HSeg {
	var runs []geom.HSeg
	for y := 0; y < b.H; y++ {
		row := b.Row(y)
		x := nextSet(row, 0, b.W)
		for x < b.W {
			end := nextClear(row, x+1, b.W)
			if end-x >= minLen {
				runs = append(runs, geom.HSeg{Y: y, X0: x, X1: end - 1})
			}
			x = nextSet(row, end+1, b.W)
		}
	}
	return runs
}

// VRuns returns every maximal vertical run of set pixels in b that is at
// least minLen pixels long.
//
// Columns are processed 64 at a time: per word-column the run starts are
// `row &^ prevRow` and the run ends `prevRow &^ row`, so a single pass down
// the image tracks all 64 lanes in parallel.
func VRuns(b *Binary, minLen int) []geom.VSeg {
	var runs []geom.VSeg
	var start [64]int32
	for wi := 0; wi < b.Stride; wi++ {
		blockBase := len(runs)
		var prev uint64
		for y := 0; y < b.H; y++ {
			w := b.Words[y*b.Stride+wi]
			starts := w &^ prev
			for starts != 0 {
				start[bits.TrailingZeros64(starts)] = int32(y)
				starts &= starts - 1
			}
			ends := prev &^ w
			for ends != 0 {
				l := bits.TrailingZeros64(ends)
				ends &= ends - 1
				if y-int(start[l]) >= minLen {
					runs = append(runs, geom.VSeg{X: wi<<6 + l, Y0: int(start[l]), Y1: y - 1})
				}
			}
			prev = w
		}
		for prev != 0 {
			l := bits.TrailingZeros64(prev)
			prev &= prev - 1
			if b.H-int(start[l]) >= minLen {
				runs = append(runs, geom.VSeg{X: wi<<6 + l, Y0: int(start[l]), Y1: b.H - 1})
			}
		}
		// Lanes finished in arbitrary order within the block; restore the
		// column-major (x, then y) ordering of the per-pixel reference.
		block := runs[blockBase:]
		sort.Slice(block, func(i, j int) bool {
			if block[i].X != block[j].X {
				return block[i].X < block[j].X
			}
			return block[i].Y0 < block[j].Y0
		})
	}
	return runs
}
