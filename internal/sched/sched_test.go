package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"exegpt/internal/hw"
	"exegpt/internal/model"
)

func sub(t *testing.T, c hw.Cluster, n int) hw.Cluster {
	t.Helper()
	s, err := c.Sub(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPolicyString(t *testing.T) {
	if RRA.String() != "RRA" || WAAC.String() != "WAA-C" || WAAM.String() != "WAA-M" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should still render")
	}
	if RRA.IsWAA() || !WAAC.IsWAA() || !WAAM.IsWAA() {
		t.Fatal("IsWAA wrong")
	}
}

func TestTPSpecValidate(t *testing.T) {
	cases := []struct {
		tp   TPSpec
		n    int
		ok   bool
		name string
	}{
		{TPSpec{1, 0}, 8, true, "no TP"},
		{TPSpec{2, 4}, 8, true, "partial"},
		{TPSpec{4, 8}, 8, true, "full"},
		{TPSpec{0, 0}, 8, false, "zero degree"},
		{TPSpec{2, 3}, 8, false, "not multiple"},
		{TPSpec{2, 10}, 8, false, "too many"},
		{TPSpec{1, 2}, 8, false, "degree 1 with TP GPUs"},
	}
	for _, c := range cases {
		err := c.tp.Validate(c.n)
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestTPSpecStages(t *testing.T) {
	if got := (TPSpec{1, 0}).Stages(8); got != 8 {
		t.Fatalf("no-TP stages = %d", got)
	}
	// 4 GPUs in TP=2 groups + 4 plain = 2 + 4 = 6 stages.
	if got := (TPSpec{2, 4}).Stages(8); got != 6 {
		t.Fatalf("partial-TP stages = %d", got)
	}
	if got := (TPSpec{8, 8}).Stages(8); got != 1 {
		t.Fatalf("full-TP stages = %d", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Policy: RRA, BE: 4, BD: 16, ND: 8, TP: TPSpec{Degree: 1}}
	if err := good.Validate(4); err != nil {
		t.Fatal(err)
	}
	waa := Config{Policy: WAAC, BE: 2, BD: 64, Bm: 2, TP: TPSpec{Degree: 1}}
	if err := waa.Validate(4); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Policy: RRA, BE: 0, BD: 1, ND: 1, TP: TPSpec{Degree: 1}},
		{Policy: RRA, BE: 1, BD: 1, ND: 0, TP: TPSpec{Degree: 1}},
		{Policy: WAAC, BE: 1, BD: 1, Bm: 0, TP: TPSpec{Degree: 1}},
		{Policy: Policy(7), BE: 1, BD: 1, TP: TPSpec{Degree: 1}},
	}
	for i, c := range bad {
		if err := c.Validate(4); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
	if err := waa.Validate(1); err == nil {
		t.Fatal("WAA on a single GPU should fail")
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Policy: RRA, BE: 49, BD: 343, ND: 7, TP: TPSpec{4, 4}}
	if got := c.String(); got != "RRA{BE=49 BD=343 ND=7 TP=4x4}" {
		t.Fatalf("String = %q", got)
	}
	w := Config{Policy: WAAC, BE: 4, BD: 128, Bm: 2, TP: TPSpec{2, 2}}
	if got := w.String(); got != "WAA-C{BE=4 BD=128 Bm=2 TP=2x2}" {
		t.Fatalf("String = %q", got)
	}
}

func TestSplitEven(t *testing.T) {
	got := splitEven(10, 4)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitEven = %v", got)
		}
	}
	if out := splitEven(5, 0); len(out) != 0 {
		t.Fatal("zero stages")
	}
}

func TestAllocateRRAEncDec(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 4)
	a, err := AllocateRRA(model.T511B, cluster, TPSpec{Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Stages) != 4 {
		t.Fatalf("stages = %d", len(a.Stages))
	}
	totalEnc, totalDec := 0, 0
	for _, s := range a.Stages {
		if s.Role != RoleBoth {
			t.Fatal("RRA stages serve both roles")
		}
		totalEnc += s.EncLayers
		totalDec += s.DecLayers
		if s.EncLayers != 6 || s.DecLayers != 6 {
			t.Fatalf("uneven split: %+v", s)
		}
	}
	if totalEnc != 24 || totalDec != 24 {
		t.Fatalf("layers covered: enc=%d dec=%d", totalEnc, totalDec)
	}
}

func TestAllocateRRADecoderOnly(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 4)
	a, err := AllocateRRA(model.OPT13B, cluster, TPSpec{Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Stages {
		// Decoder-only: prefill runs through the same 10 decoder layers.
		if s.EncLayers != 10 || s.DecLayers != 10 {
			t.Fatalf("stage layers: %+v", s)
		}
	}
}

func TestAllocateRRAPartialTP(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 8)
	a, err := AllocateRRA(model.GPT339B, cluster, TPSpec{Degree: 2, GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 2 TP-2 stages + 4 plain stages = 6 stages.
	if len(a.Stages) != 6 {
		t.Fatalf("stages = %d", len(a.Stages))
	}
	if a.Stages[0].TP != 2 || a.Stages[1].TP != 2 || a.Stages[2].TP != 1 {
		t.Fatalf("TP layout wrong: %+v", a.Stages)
	}
	if a.TotalGPUs() != 8 {
		t.Fatalf("GPUs covered = %d", a.TotalGPUs())
	}
	total := 0
	for _, s := range a.Stages {
		total += s.DecLayers
	}
	if total != 48 {
		t.Fatalf("dec layers covered = %d", total)
	}
}

func TestAllocateRRARejectsBadTP(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 4)
	if _, err := AllocateRRA(model.OPT13B, cluster, TPSpec{Degree: 2, GPUs: 3}); err == nil {
		t.Fatal("bad TP should fail")
	}
}

func TestCrossNodeTPGroups(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 16)
	a, err := AllocateRRA(model.GPT339B, cluster, TPSpec{Degree: 8, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Groups [0..8) and [8..16): both within a node.
	for _, s := range a.Stages {
		if s.CrossNode {
			t.Fatalf("aligned groups should not cross nodes: %+v", s)
		}
	}
	// A 16-wide group cannot exist (degree > node) — but a misaligned
	// 2-wide group at rank 7 would. Construct directly:
	stages := buildStages(cluster, 7, 2, TPSpec{Degree: 2, GPUs: 2}, RoleDecode)
	if !stages[0].CrossNode {
		t.Fatal("group spanning ranks 7,8 must be cross-node")
	}
}

func TestWAASplitCost(t *testing.T) {
	enc, dec, err := WAASplit(4, WAAC, 1.0, 3.0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if enc != 1 || dec != 3 {
		t.Fatalf("split = %d/%d, want 1/3", enc, dec)
	}
	// Extreme ratios clamp to leave at least one GPU per side.
	enc, dec, err = WAASplit(4, WAAC, 100, 0.001, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if enc != 3 || dec != 1 {
		t.Fatalf("clamped split = %d/%d", enc, dec)
	}
	if _, _, err := WAASplit(4, WAAC, 0, 1, 0, 0); err == nil {
		t.Fatal("zero cost should fail")
	}
	if _, _, err := WAASplit(1, WAAC, 1, 1, 0, 0); err == nil {
		t.Fatal("single GPU should fail")
	}
	if _, _, err := WAASplit(4, RRA, 1, 1, 0, 0); err == nil {
		t.Fatal("RRA is not a WAA policy")
	}
}

func TestWAASplitMemory(t *testing.T) {
	enc, dec, err := WAASplit(8, WAAM, 0, 0, 1<<30, 3<<30)
	if err != nil {
		t.Fatal(err)
	}
	if enc != 2 || dec != 6 {
		t.Fatalf("memory split = %d/%d, want 2/6", enc, dec)
	}
	if _, _, err := WAASplit(8, WAAM, 0, 0, 0, 1); err == nil {
		t.Fatal("zero memory should fail")
	}
}

func TestAllocateWAA(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 4)
	a, err := AllocateWAA(model.OPT13B, cluster, WAAC, 1, 3, TPSpec{Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.EncGPUs != 1 || a.DecGPUs != 3 {
		t.Fatalf("split = %d/%d", a.EncGPUs, a.DecGPUs)
	}
	encStages, decStages := a.EncStages(), a.DecStages()
	if len(encStages) != 1 || len(decStages) != 3 {
		t.Fatalf("stages = %d enc, %d dec", len(encStages), len(decStages))
	}
	// Decoder-only: encode side holds a full copy of the 40 layers.
	if encStages[0].EncLayers != 40 {
		t.Fatalf("enc stage layers = %d", encStages[0].EncLayers)
	}
	totalDec := 0
	for _, s := range decStages {
		totalDec += s.DecLayers
		if s.Role != RoleDecode {
			t.Fatal("decode stage role wrong")
		}
	}
	if totalDec != 40 {
		t.Fatalf("dec layers = %d", totalDec)
	}
}

func TestAllocateWAAErrors(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 4)
	if _, err := AllocateWAA(model.OPT13B, cluster, RRA, 1, 3, TPSpec{Degree: 1}); err == nil {
		t.Fatal("RRA policy should fail")
	}
	if _, err := AllocateWAA(model.OPT13B, cluster, WAAC, 2, 3, TPSpec{Degree: 1}); err == nil {
		t.Fatal("split not covering cluster should fail")
	}
	if _, err := AllocateWAA(model.OPT13B, cluster, WAAC, 0, 4, TPSpec{Degree: 1}); err == nil {
		t.Fatal("zero encoder GPUs should fail")
	}
	if _, err := AllocateWAA(model.OPT13B, cluster, WAAC, 1, 3, TPSpec{Degree: 2, GPUs: 4}); err == nil {
		t.Fatal("TP wider than decode side should fail")
	}
}

// WAA on a decoder-only model stores two copies of the model; the same
// model under RRA stores one (§4.1 memory overhead).
func TestWAAModelMemoryOverhead(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 4)
	m := model.OPT13B
	rra, err := AllocateRRA(m, cluster, TPSpec{Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	waa, err := AllocateWAA(m, cluster, WAAC, 1, 3, TPSpec{Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(a Allocation) int64 {
		var total int64
		for _, s := range a.Stages {
			total += WeightBytesPerGPU(m, s) * int64(s.TP)
		}
		return total
	}
	layerBytes := int64(m.DecLayers) * m.DecLayerBytes()
	if got := sum(rra); got != layerBytes {
		t.Fatalf("RRA stores %d, want one copy %d", got, layerBytes)
	}
	if got := sum(waa); got != 2*layerBytes {
		t.Fatalf("WAA stores %d, want two copies %d", got, 2*layerBytes)
	}
}

// Encoder-decoder models do not duplicate weights under WAA.
func TestWAAEncDecNoDuplication(t *testing.T) {
	cluster := sub(t, hw.A40Cluster, 4)
	m := model.T511B
	waa, err := AllocateWAA(m, cluster, WAAC, 2, 2, TPSpec{Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range waa.Stages {
		total += WeightBytesPerGPU(m, s) * int64(s.TP)
	}
	want := int64(m.EncLayers)*m.EncLayerBytes() + int64(m.DecLayers)*m.DecLayerBytes()
	if total != want {
		t.Fatalf("T5 WAA stores %d, want %d (no duplication)", total, want)
	}
}

func TestDeployments(t *testing.T) {
	if len(DefaultDeployments) != 7 {
		t.Fatalf("want 7 Table 2 deployments, got %d", len(DefaultDeployments))
	}
	d, err := DeploymentFor("OPT-13B")
	if err != nil || d.GPUs != 4 || d.Cluster.Name != "A40" {
		t.Fatalf("OPT deployment: %+v err=%v", d, err)
	}
	if _, err := DeploymentFor("nope"); err == nil {
		t.Fatal("unknown model should fail")
	}
	c, err := d.Cluster.Sub(d.GPUs)
	if err != nil || c.TotalGPUs() != 4 {
		t.Fatalf("sub-cluster: %+v err=%v", c, err)
	}
}

// Property: RRA allocation always covers every layer exactly once and
// every GPU exactly once, for any valid TP spec.
func TestQuickRRACoverage(t *testing.T) {
	cluster16, err := hw.A40Cluster.Sub(16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(degSel, gSel uint8) bool {
		degrees := []int{1, 2, 4, 8}
		deg := degrees[int(degSel)%len(degrees)]
		tpGPUs := 0
		if deg > 1 {
			maxGroups := 16 / deg
			tpGPUs = (int(gSel)%maxGroups + 1) * deg
		}
		tp := TPSpec{Degree: deg, GPUs: tpGPUs}
		a, err := AllocateRRA(model.GPT339B, cluster16, tp)
		if err != nil {
			return false
		}
		gpus, layers := 0, 0
		for _, s := range a.Stages {
			gpus += s.GPUs()
			layers += s.DecLayers
		}
		return gpus == 16 && layers == 48 && len(a.Stages) == tp.Stages(16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}
