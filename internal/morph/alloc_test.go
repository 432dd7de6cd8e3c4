//go:build !race

package morph

import (
	"math/rand"
	"testing"

	"tdmagic/internal/imgproc"
)

// TestLineOpsZeroAlloc pins the window kernels' scratch to imgproc's pool:
// once the pool is warm, a horizontal and a vertical window reduction of a
// 900×540 picture, at the element lengths LAD's contour passes use, with
// their results given back, allocate nothing. The race detector makes the
// pool drop part of what it is given, so the pin runs without it (ci.sh
// step 5b).
func TestLineOpsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := imgproc.NewBinary(900, 540)
	for i := 0; i < 20000; i++ {
		b.Set(rng.Intn(b.W), rng.Intn(b.H), true)
	}
	for _, n := range []int{9, 25, 30} {
		for _, and := range []bool{false, true} {
			for name, op := range map[string]func(*imgproc.Binary, int, bool) *imgproc.Binary{
				"hLineOp": hLineOp, "vLineOp": vLineOp,
			} {
				allocs := testing.AllocsPerRun(20, func() { imgproc.PutBinary(op(b, n, and)) })
				if allocs != 0 {
					t.Errorf("%s(n=%d, and=%v) allocates %v times per call, want 0", name, n, and, allocs)
				}
			}
		}
	}
}
