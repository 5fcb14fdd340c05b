package tensor

import "testing"

func TestBoxAlgebra(t *testing.T) {
	grid := GridBox(8, 8, 8)
	b := Box{Lo: [3]int{3, 0, 5}, Hi: [3]int{5, 2, 8}}
	if d, h, w := b.Dims(); d != 2 || h != 2 || w != 3 || b.Volume() != 12 {
		t.Fatalf("dims %d %d %d volume %d", d, h, w, b.Volume())
	}
	if got, want := b.Dilate(2).Intersect(grid), (Box{Lo: [3]int{1, 0, 3}, Hi: [3]int{7, 4, 8}}); got != want {
		t.Fatalf("dilate+clip = %v, want %v", got, want)
	}
	// Align grows outward, also below zero (a dilated box before
	// clipping), and leaves aligned boxes alone.
	if got, want := (Box{Lo: [3]int{-3, 1, 4}, Hi: [3]int{1, 2, 7}}).Align(2), (Box{Lo: [3]int{-4, 0, 4}, Hi: [3]int{2, 2, 8}}); got != want {
		t.Fatalf("align = %v, want %v", got, want)
	}
	if got := grid.Align(4); got != grid {
		t.Fatalf("aligning the grid changed it: %v", got)
	}
	if got, want := (Box{Lo: [3]int{2, 0, 4}, Hi: [3]int{6, 2, 8}}).Downscale(2), (Box{Lo: [3]int{1, 0, 2}, Hi: [3]int{3, 1, 4}}); got != want {
		t.Fatalf("downscale = %v, want %v", got, want)
	}
	if got, want := b.Union(Box{Lo: [3]int{0, 1, 6}, Hi: [3]int{4, 7, 7}}), (Box{Lo: [3]int{0, 0, 5}, Hi: [3]int{5, 7, 8}}); got != want {
		t.Fatalf("union = %v, want %v", got, want)
	}
	if grid.Intersect(b) != b || b.Intersect(grid) != b {
		t.Fatal("intersecting with a containing box must give the box back")
	}
}

// TestBoxEmptyIsCanonical: every operation maps an empty box, however
// it is written, to the zero Box, so empty results compare equal and
// have zero dims.
func TestBoxEmptyIsCanonical(t *testing.T) {
	inverted := Box{Lo: [3]int{8, 8, 8}} // what a scan that found nothing holds
	for name, got := range map[string]Box{
		"union":     inverted.Union(Box{}),
		"intersect": GridBox(4, 4, 4).Intersect(Box{Lo: [3]int{5, 0, 0}, Hi: [3]int{6, 4, 4}}),
		"dilate":    inverted.Dilate(3),
		"align":     inverted.Align(2),
	} {
		if got != (Box{}) || got.Volume() != 0 {
			t.Fatalf("%s of an empty box = %v, want the zero Box", name, got)
		}
	}
	b := Box{Lo: [3]int{1, 1, 1}, Hi: [3]int{2, 3, 4}}
	if inverted.Union(b) != b || b.Union(inverted) != b {
		t.Fatal("an empty box must not contribute to a union")
	}
}
