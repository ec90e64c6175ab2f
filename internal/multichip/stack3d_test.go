package multichip

import "testing"

func TestPlanStackPaperExample(t *testing.T) {
	// Fig 8: four layers, each a 1n×4n slice.
	s, err := PlanStack(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalSpins() != 4000 {
		t.Fatalf("TotalSpins = %d", s.TotalSpins())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStackShadowAlignment(t *testing.T) {
	// Fig 8's caption: block 6's shadows are blocks 2, 10, 14 — in the
	// 4×4 row-major numbering, module (1,1)'s shadows are (0,1), (2,1)
	// and (3,1): same column, other layers.
	s, _ := PlanStack(4, 1)
	shadows := s.ShadowLayers(1)
	want := []int{0, 2, 3}
	if len(shadows) != len(want) {
		t.Fatalf("shadows %v", shadows)
	}
	for i := range want {
		if shadows[i] != want[i] {
			t.Fatalf("shadows %v, want %v", shadows, want)
		}
	}
	// Row-major module ids of column 1 on layers 0,2,3 are 2, 10, 14
	// (1-based), matching the paper's example.
	ids := []int{}
	for _, l := range shadows {
		ids = append(ids, l*4+1+1)
	}
	if ids[0] != 2 || ids[1] != 10 || ids[2] != 14 {
		t.Fatalf("module ids %v, want [2 10 14]", ids)
	}
}

func TestStackTSVLengths(t *testing.T) {
	s, _ := PlanStack(4, 1)
	if s.TSVLength(1, 1) != 0 {
		t.Fatal("self TSV not zero")
	}
	if s.TSVLength(0, 3) != 3 || s.TSVLength(3, 0) != 3 {
		t.Fatal("TSV length not symmetric distance")
	}
}

func TestStackModeGrid(t *testing.T) {
	s, _ := PlanStack(3, 1)
	grid := s.ModeGrid()
	for l := range grid {
		for c := range grid[l] {
			want := ShadowCopy
			if l == c {
				want = Regular
			}
			if grid[l][c] != want {
				t.Fatalf("(%d,%d) = %v", l, c, grid[l][c])
			}
		}
	}
}

// TestStackSystemIsUnlimited: a stack runs as the mBRIM_3D of Sec 6.3,
// one chip per layer on an unlimited fabric (TSVs are, to first order,
// free), and such a system never stalls.
func TestStackSystemIsUnlimited(t *testing.T) {
	s, _ := PlanStack(4, 256)
	res := MustSystem(kgraph(64, 1), Config{Chips: s.Layers, Seed: 2}).RunConcurrent(20)
	if res.StallNS != 0 {
		t.Fatal("3D system stalled")
	}
}

func TestPlanStackRejectsInvalid(t *testing.T) {
	if _, err := PlanStack(0, 1); err == nil {
		t.Fatal("accepted zero layers")
	}
	if _, err := PlanStack(1, 0); err == nil {
		t.Fatal("accepted zero module size")
	}
}

func TestStackLayerBoundsPanic(t *testing.T) {
	s, _ := PlanStack(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.ShadowLayers(2)
}
