package featurize

// Featurization benchmarks: the per-pose cost of Voxelize and
// BuildGraph, uncached vs through the target-invariant prefeature
// cache, at both the repro grid and the paper's 48^3 grid.
//
//	go test ./internal/featurize/ -run xxx -bench . -benchtime 1s
//
// make bench-featurize records the comparison.

import (
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// benchLigand is a mid-sized drug-like molecule posed in the pocket.
func benchLigand(b *testing.B) *chem.Mol {
	b.Helper()
	m, err := chem.ParseSMILES("CCN(CC)CCNC(=O)c1ccc(N)cc1")
	if err != nil {
		b.Fatal(err)
	}
	chem.Embed3D(m, 3)
	target.Protease1.PlaceLigand(m)
	return m
}

func benchVoxelize(b *testing.B, vo VoxelOptions, cached bool) {
	b.ReportAllocs()
	m := benchLigand(b)
	gro := DefaultGraphOptions()
	if cached {
		pf := NewPocketPrefeature(target.Protease1, vo, gro)
		var st VoxelSlotState
		dst := pf.VoxelizeInto(nil, &st, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = pf.VoxelizeInto(dst, &st, m)
		}
		return
	}
	dst := Voxelize(target.Protease1, m, vo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = VoxelizeInto(dst, target.Protease1, m, vo)
	}
}

func BenchmarkVoxelizeRepro(b *testing.B)       { benchVoxelize(b, DefaultVoxelOptions(), false) }
func BenchmarkVoxelizeReproCached(b *testing.B) { benchVoxelize(b, DefaultVoxelOptions(), true) }
func BenchmarkVoxelizePaper(b *testing.B)       { benchVoxelize(b, PaperVoxelOptions(), false) }
func BenchmarkVoxelizePaperCached(b *testing.B) { benchVoxelize(b, PaperVoxelOptions(), true) }

func benchBuildGraph(b *testing.B, cached bool) {
	b.ReportAllocs()
	m := benchLigand(b)
	gro := DefaultGraphOptions()
	if cached {
		pf := NewPocketPrefeature(target.Protease1, DefaultVoxelOptions(), gro)
		g := pf.BuildGraphInto(nil, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g = pf.BuildGraphInto(g, m)
		}
		return
	}
	g := BuildGraph(target.Protease1, m, gro)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = BuildGraphInto(g, target.Protease1, m, gro)
	}
}

func BenchmarkBuildGraph(b *testing.B)       { benchBuildGraph(b, false) }
func BenchmarkBuildGraphCached(b *testing.B) { benchBuildGraph(b, true) }

// benchFeaturizePose measures a full pose featurization — voxel grid
// plus spatial graph, the loader's per-pose work — at a given grid
// scale. This is the pair the ISSUE's >=2x acceptance bar is measured
// on at the paper scale.
func benchFeaturizePose(b *testing.B, vo VoxelOptions, cached bool) {
	b.ReportAllocs()
	m := benchLigand(b)
	gro := DefaultGraphOptions()
	if cached {
		pf := NewPocketPrefeature(target.Protease1, vo, gro)
		var st VoxelSlotState
		var dst *tensor.Tensor
		var g *Graph
		dst = pf.VoxelizeInto(dst, &st, m)
		g = pf.BuildGraphInto(g, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = pf.VoxelizeInto(dst, &st, m)
			g = pf.BuildGraphInto(g, m)
		}
		return
	}
	dst := Voxelize(target.Protease1, m, vo)
	g := BuildGraph(target.Protease1, m, gro)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = VoxelizeInto(dst, target.Protease1, m, vo)
		g = BuildGraphInto(g, target.Protease1, m, gro)
	}
}

func BenchmarkFeaturizePoseRepro(b *testing.B) { benchFeaturizePose(b, DefaultVoxelOptions(), false) }
func BenchmarkFeaturizePoseReproCached(b *testing.B) {
	benchFeaturizePose(b, DefaultVoxelOptions(), true)
}
func BenchmarkFeaturizePosePaper(b *testing.B) { benchFeaturizePose(b, PaperVoxelOptions(), false) }
func BenchmarkFeaturizePosePaperCached(b *testing.B) {
	benchFeaturizePose(b, PaperVoxelOptions(), true)
}
