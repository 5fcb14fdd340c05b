package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/graph"
	"deepfusion/internal/h5lite"
	"deepfusion/internal/nn"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// probeEnv is what the per-layer probes run on: the workload's own
// model, precision, batch size, pocket and a sample of its poses, so a
// layer is timed on the shapes that workload gives it.
type probeEnv struct {
	f        *fusion.Fusion
	opts     screen.JobOptions
	pocket   *target.Pocket
	poses    []screen.Pose // at least one batch
	mols     []*chem.Mol   // compounds for the docking probe
	rejected float64       // share of drawn compounds set-up rejected
	dockSeed int64
}

// measure calls fn until the budget is spent, at least three times,
// and returns the median call time. The whole loop is one span under
// parent: a span per call would cost a microsecond kernel a tenth of
// its own time.
func (e *env) measure(name string, parent int, fn func()) time.Duration {
	budget := 150 * time.Millisecond
	if e.smoke {
		budget = 5 * time.Millisecond
	}
	sp := e.rec.begin(name, "", parent)
	defer e.rec.end(sp)
	var ds []float64
	for t0 := time.Now(); len(ds) < 3 || time.Since(t0) < budget; {
		c0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(c0)))
	}
	return time.Duration(median(ds))
}

// mallocs counts heap allocations and bytes during fn. Other
// goroutines are idle while a probe runs.
func mallocs(fn func()) (objects, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// runProbes times each compute layer alone, single-threaded, through
// its public entry points, and fills the per-layer metrics that every
// workload reports.
func (e *env) runProbes(m map[string]float64, pe probeEnv) error {
	root := e.rec.begin("probes", "", -1)
	defer e.rec.end(root)
	f := pe.f
	cfg := f.CNN.Cfg
	vo, gro := cfg.Voxel, f.SG.Cfg.Graph
	bs := pe.opts.BatchSize
	f32 := pe.opts.Precision == screen.PrecisionF32
	width := 8.0
	if f32 {
		width = 4
	}
	rng := rand.New(rand.NewSource(61))
	pose := func(i int) screen.Pose { return pe.poses[i%len(pe.poses)] }
	next := 0

	// featurize: the target-invariant cache, then the per-pose halves.
	var pre *featurize.PocketPrefeature
	d := e.measure("NewPocketPrefeature", root, func() { pre = featurize.NewPocketPrefeature(pe.pocket, vo, gro) })
	m["featurize.prefeature_build_ms"] = ms(d)
	var grid *tensor.Tensor
	var slot featurize.VoxelSlotState
	d = e.measure("VoxelizeInto", root, func() { grid = pre.VoxelizeInto(grid, &slot, pose(next).Mol); next++ })
	m["featurize.voxelize_us"] = us(d)
	nonzero := 0
	for _, v := range grid.Data {
		if v != 0 {
			nonzero++
		}
	}
	m["featurize.voxel_nonzero_share"] = float64(nonzero) / float64(len(grid.Data))
	var g *featurize.Graph
	d = e.measure("BuildGraphInto", root, func() { g = pre.BuildGraphInto(g, pose(next).Mol); next++ })
	m["featurize.graph_us"] = us(d)

	// fusion: one pose featurized, then one batch through the whole
	// model and through each head alone.
	sample := &fusion.Sample{}
	featurizePose := e.measure("FeaturizeComplexWithPrefeature", root, func() {
		fusion.FeaturizeComplexWithPrefeature(sample, pre, pose(next).CompoundID, pose(next).Mol, 0)
		next++
	})
	m["fusion.featurize_pose_us"] = us(featurizePose)
	samples := make([]*fusion.Sample, bs)
	for i := range samples {
		samples[i] = fusion.FeaturizeComplexWithPrefeature(nil, pre, pose(i).CompoundID, pose(i).Mol, 0)
	}
	ws := fusion.NewWorkspaceFor(pe.opts.Precision)
	out := make([]float64, bs)
	f.PredictBatchInto(samples, ws, out) // packs weights, sizes the arena
	predict := e.measure("Fusion.PredictBatchInto", root, func() { f.PredictBatchInto(samples, ws, out) })
	objects, _ := mallocs(func() { f.PredictBatchInto(samples, ws, out) })
	f.CNN.PredictBatchInto(samples, ws, out)
	cnn := e.measure("CNN3D.PredictBatchInto", root, func() { f.CNN.PredictBatchInto(samples, ws, out) })
	f.SG.PredictBatchInto(samples, ws, out)
	sg := e.measure("SGCNN.PredictBatchInto", root, func() { f.SG.PredictBatchInto(samples, ws, out) })
	m["fusion.predict_batch_ms"] = ms(predict)
	m["fusion.cnn3d_batch_ms"] = ms(cnn)
	m["fusion.sgcnn_batch_ms"] = ms(sg)
	m["fusion.trunk_self_ms"] = ms(predict - cnn - sg)
	m["fusion.allocs_per_batch"] = float64(objects)

	// tensor: the packed GEMM at the voxel head's first dense layer,
	// [batch x flat] x [flat x dense].
	{
		gq := vo.GridSize / 4
		k, n := cfg.ConvFilters2*gq*gq*gq, cfg.DenseNodes
		a, b := tensor.New(bs, k), tensor.New(k, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		var d time.Duration
		if f32 {
			a32, b32, c32 := tensor.NewF32(bs, k), tensor.NewF32(k, n), tensor.NewF32(bs, n)
			a32.CopyFrom64(a)
			b32.CopyFrom64(b)
			var pb tensor.PackedB32
			pb.Pack(b32)
			d = e.measure("MatMulPacked32Into", root, func() { tensor.MatMulPacked32Into(c32, a32, &pb) })
		} else {
			c := tensor.New(bs, n)
			var pb tensor.PackedB
			pb.Pack(b)
			d = e.measure("MatMulPackedInto", root, func() { tensor.MatMulPackedInto(c, a, &pb) })
		}
		flops := 2 * float64(bs) * float64(k) * float64(n)
		m["tensor.matmul_packed_us"] = us(d)
		m["tensor.matmul_gflops"] = flops / d.Seconds() / 1e9
		m["tensor.matmul_flop_per_byte"] = flops / (float64(bs*k+k*n+bs*n) * width)
	}

	// nn: a convolution shaped like the voxel head's first stage (5^3
	// kernel, all channels in, ConvFilters1 out) over the real batch,
	// whose sparsity decides which Conv3D path runs.
	{
		c, gs := vo.Channels(), vo.GridSize
		conv := nn.NewConv3D(rng, c, cfg.ConvFilters1, 5)
		x := tensor.New(bs, c, gs, gs, gs)
		per := c * gs * gs * gs
		for i, s := range samples {
			copy(x.Data[i*per:(i+1)*per], s.Voxels.Data)
		}
		nws := nn.NewWorkspace()
		var d time.Duration
		if f32 {
			x32 := tensor.NewF32FromShape(x.Shape)
			x32.CopyFrom64(x)
			d = e.measure("Conv3D.ForwardInfer32", root, func() { nws.Reset(); conv.ForwardInfer32(x32, nws) })
		} else {
			d = e.measure("Conv3D.ForwardInfer", root, func() { nws.Reset(); conv.ForwardInfer(x, nws) })
		}
		vox := float64(gs * gs * gs)
		flops := 2 * float64(bs) * float64(cfg.ConvFilters1) * float64(c) * 125 * vox
		elems := float64(bs)*float64(c)*vox + float64(cfg.ConvFilters1*c*125) + float64(bs)*float64(cfg.ConvFilters1)*vox
		m["nn.conv3d_fwd_ms"] = ms(d)
		m["nn.conv3d_gflops"] = flops / d.Seconds() / 1e9 // dense flops; the sparse path skips zeros
		m["nn.conv3d_bytes_mb"] = elems * width / 1e6     // computed from tensor sizes, not measured traffic
	}

	// graph: one gated graph convolution, non-covalent stage shape, over
	// the batch's disjoint-union graph.
	{
		w := f.SG.Cfg.NonCovGatherWidth
		gg := graph.NewGGConv(rng, w, f.SG.Cfg.NonCovK)
		var edges []featurize.Edge
		nodes := 0
		for _, s := range samples {
			for _, ed := range s.Graph.NonCov {
				edges = append(edges, featurize.Edge{From: ed.From + nodes, To: ed.To + nodes, Dist: ed.Dist})
			}
			nodes += s.Graph.NumNodes()
		}
		h := tensor.New(nodes, w)
		for i := range h.Data {
			h.Data[i] = rng.NormFloat64()
		}
		nws := nn.NewWorkspace()
		var d time.Duration
		if f32 {
			h32 := tensor.NewF32(nodes, w)
			h32.CopyFrom64(h)
			d = e.measure("GGConv.ForwardInfer32", root, func() { nws.Reset(); gg.ForwardInfer32(h32, edges, nws) })
		} else {
			d = e.measure("GGConv.ForwardInfer", root, func() { nws.Reset(); gg.ForwardInfer(h, edges, nws) })
		}
		m["graph.ggconv_us"] = us(d)
	}

	// dock: one compound through the production docking call.
	ctx := context.Background()
	var err error
	posesKept, calls := 0, 0
	d = e.measure("DockCompounds", root, func() {
		var ps []screen.Pose
		if ps, _, err = screen.DockCompounds(ctx, pe.pocket, pe.mols[calls%len(pe.mols):][:1], posesPerCompound, pe.dockSeed); err == nil {
			posesKept += len(ps)
			calls++
		}
	})
	if err != nil {
		return fmt.Errorf("dock probe: %w", err)
	}
	m["dock.compound_ms"] = ms(d)
	m["dock.poses_per_compound"] = float64(posesKept) / float64(calls)
	m["dock.rejected_share"] = pe.rejected

	// screen: a warm session batch, then a whole job on the sample
	// poses for pipeline efficiency and allocation cost.
	o := pe.opts
	o.Prefeature = pre
	sess, err := screen.NewSession([]screen.Scorer{f}, pe.pocket, o, 0)
	if err != nil {
		return fmt.Errorf("session probe: %w", err)
	}
	batchOut := make([]screen.Prediction, bs)
	if err := sess.ScoreBatch(pe.poses[:bs], batchOut); err != nil {
		return fmt.Errorf("session probe: %w", err)
	}
	d = e.measure("Session.ScoreBatch", root, func() { _ = sess.ScoreBatch(pe.poses[:bs], batchOut) })
	m["screen.session_batch_ms"] = ms(d)

	var preds []screen.Prediction
	runJob := func() { preds, err = screen.RunJob(ctx, f, pe.pocket, pe.poses, o) }
	if runJob(); err != nil { // warm
		return fmt.Errorf("job probe: %w", err)
	}
	var jobWall time.Duration
	objects, allocated := mallocs(func() { jobWall = e.rec.timed("RunJob", "probe", root, runJob) })
	if err != nil {
		return fmt.Errorf("job probe: %w", err)
	}
	np := float64(len(pe.poses))
	kernel := featurizePose.Seconds() + predict.Seconds()/float64(bs)
	m["screen.runjob_efficiency"] = np * kernel / (float64(o.Ranks) * jobWall.Seconds())
	m["screen.allocs_per_pose"] = float64(objects) / np
	m["screen.bytes_per_pose"] = float64(allocated) / np

	// shards: assemble, encode, commit durably, read back verified.
	const shards = 2
	var files []*h5lite.File
	d = e.measure("WriteShards", root, func() { files = screen.WriteShards(preds, shards) })
	m["screen.write_shards_ms"] = ms(d)
	d = e.measure("ReadShards", root, func() { _, _ = screen.ReadShards(files) })
	m["screen.read_shards_ms"] = ms(d)
	var buf bytes.Buffer
	encoded := 0
	for _, file := range files {
		buf.Reset()
		if err := file.Write(&buf); err != nil {
			return fmt.Errorf("h5lite probe: %w", err)
		}
		encoded += buf.Len()
	}
	d = e.measure("h5lite.Write", root, func() { buf.Reset(); _ = files[shards-1].Write(&buf) })
	m["h5lite.encode_mb_per_s"] = float64(buf.Len()) / 1e6 / d.Seconds()
	data := append([]byte(nil), buf.Bytes()...)
	d = e.measure("h5lite.Decode", root, func() { _, _ = h5lite.Decode("probe", data) })
	m["h5lite.decode_mb_per_s"] = float64(len(data)) / 1e6 / d.Seconds()
	m["h5lite.bytes_per_pose"] = float64(encoded) / np
	path := filepath.Join(e.dir, "probe.h5l")
	d = e.measure("WriteShardFile", root, func() { err = campaign.WriteShardFile(path, files[shards-1]) })
	if err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	m["campaign.shard_write_ms"] = ms(d)
	d = e.measure("ReadShardFile", root, func() { _, err = campaign.ReadShardFile(path) })
	if err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	m["campaign.shard_read_ms"] = ms(d)
	return nil
}
