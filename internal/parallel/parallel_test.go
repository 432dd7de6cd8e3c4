package parallel

import (
	"errors"
	"testing"
)

func TestResolve(t *testing.T) {
	if Resolve(4) != 4 {
		t.Error("positive workers should pass through")
	}
	if Resolve(0) < 1 || Resolve(-3) < 1 {
		t.Error("non-positive workers should resolve to >= 1")
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out := make([]int, 57)
		For(workers, len(out), func(i int) { out[i] = i + 1 })
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
}

func TestForZeroN(t *testing.T) {
	called := false
	For(4, 0, func(int) { called = true })
	if called {
		t.Error("fn called with n=0")
	}
}

func TestForErrReturnsLowestIndex(t *testing.T) {
	e7 := errors.New("seven")
	e3 := errors.New("three")
	err := ForErr(4, 10, func(i int) error {
		switch i {
		case 7:
			return e7
		case 3:
			return e3
		}
		return nil
	})
	if err != e3 {
		t.Errorf("got %v, want the lowest-index error", err)
	}
	if err := ForErr(4, 10, func(int) error { return nil }); err != nil {
		t.Errorf("unexpected error %v", err)
	}
}

func TestSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for master := int64(0); master < 10; master++ {
		for stream := int64(0); stream < 100; stream++ {
			s := Seed(master, stream)
			if seen[s] {
				t.Fatalf("seed collision at master=%d stream=%d", master, stream)
			}
			seen[s] = true
		}
	}
	if Seed(1, 2) != Seed(1, 2) {
		t.Error("Seed not deterministic")
	}
}
