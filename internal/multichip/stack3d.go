package multichip

import "fmt"

// This file models the 3D-integrated multiprocessor of Fig 8: L layers
// stacked vertically, each layer operating as a 1n×Ln slice of the
// coupling matrix. Layer l's regular (node-bearing) module sits on the
// diagonal position (l, l); the other modules of its row hold shadow
// copies. Because module (l, c) of every layer shares the (x, y)
// footprint of module (c, c) — the owner of block c's real nodes — a
// shadow register and its real node are vertically adjacent and
// connect with a through-silicon via of |l − c| layer pitches.

// Stack describes an L-layer 3D-integrated multiprocessor where each
// layer carries ModuleN real spins.
type Stack struct {
	Layers  int
	ModuleN int
}

// PlanStack validates and builds a stack description.
func PlanStack(layers, moduleN int) (*Stack, error) {
	if layers < 1 || moduleN < 1 {
		return nil, fmt.Errorf("multichip: PlanStack(%d, %d): arguments must be positive", layers, moduleN)
	}
	return &Stack{Layers: layers, ModuleN: moduleN}, nil
}

// TotalSpins returns the system capacity, Layers × ModuleN.
func (s *Stack) TotalSpins() int { return s.Layers * s.ModuleN }

// ShadowLayers returns the layers holding shadow copies of block c's
// spins: every layer except c itself.
func (s *Stack) ShadowLayers(block int) []int {
	s.checkLayer(block)
	out := make([]int, 0, s.Layers-1)
	for l := 0; l < s.Layers; l++ {
		if l != block {
			out = append(out, l)
		}
	}
	return out
}

// TSVLength returns the vertical distance, in layer pitches, between
// block's real nodes (layer `block`) and its shadow on layer `layer`.
// The short, fixed-length vertical hop is why the paper notes shadow
// registers become architecturally optional in a 3D stack.
func (s *Stack) TSVLength(block, layer int) int {
	s.checkLayer(block)
	s.checkLayer(layer)
	d := layer - block
	if d < 0 {
		d = -d
	}
	return d
}

// ModeGrid returns the Layers×Layers module-mode map of the whole
// stack (row l = layer l): Regular on the diagonal, ShadowCopy
// elsewhere — Fig 8's logical view.
func (s *Stack) ModeGrid() [][]ModuleMode {
	grid := make([][]ModuleMode, s.Layers)
	for l := range grid {
		grid[l] = make([]ModuleMode, s.Layers)
		for c := range grid[l] {
			if c == l {
				grid[l][c] = Regular
			} else {
				grid[l][c] = ShadowCopy
			}
		}
	}
	return grid
}

// Validate checks the stack's structural invariants.
func (s *Stack) Validate() error {
	if s.Layers < 1 || s.ModuleN < 1 {
		return fmt.Errorf("multichip: invalid stack %d×%d", s.Layers, s.ModuleN)
	}
	grid := s.ModeGrid()
	for l, row := range grid {
		regular := 0
		for _, m := range row {
			if m == Regular {
				regular++
			}
		}
		if regular != 1 {
			return fmt.Errorf("multichip: layer %d has %d regular modules, want 1", l, regular)
		}
	}
	// Every block's shadows stack directly above/below its owner:
	// constant column, TSV length ≤ Layers−1.
	for block := 0; block < s.Layers; block++ {
		for _, l := range s.ShadowLayers(block) {
			if tsv := s.TSVLength(block, l); tsv < 1 || tsv > s.Layers-1 {
				return fmt.Errorf("multichip: block %d shadow on layer %d has TSV length %d", block, l, tsv)
			}
		}
	}
	return nil
}

func (s *Stack) checkLayer(l int) {
	if l < 0 || l >= s.Layers {
		panic(fmt.Sprintf("multichip: layer %d of %d", l, s.Layers))
	}
}
