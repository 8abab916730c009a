package hw

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClusterSizes(t *testing.T) {
	if got := A40Cluster.TotalGPUs(); got != 48 {
		t.Fatalf("A40 cluster GPUs = %d, want 48", got)
	}
	if got := A100Cluster.TotalGPUs(); got != 16 {
		t.Fatalf("A100 cluster GPUs = %d, want 16", got)
	}
	for _, c := range []Cluster{A40Cluster, A100Cluster} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestSubCluster(t *testing.T) {
	sub, err := A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.TotalGPUs() != 4 || sub.Nodes != 1 {
		t.Fatalf("sub = %+v", sub)
	}
	sub16, err := A40Cluster.Sub(16)
	if err != nil {
		t.Fatal(err)
	}
	if sub16.TotalGPUs() != 16 || sub16.Nodes != 2 {
		t.Fatalf("sub16 = %+v", sub16)
	}
	if _, err := A40Cluster.Sub(0); err == nil {
		t.Fatal("Sub(0) should fail")
	}
	if _, err := A40Cluster.Sub(49); err == nil {
		t.Fatal("Sub(49) should fail")
	}
	if _, err := A40Cluster.Sub(12); err == nil {
		t.Fatal("Sub(12) not a multiple of node size, should fail")
	}
}

func TestNodeOfAndLinks(t *testing.T) {
	c := A40Cluster
	if c.NodeOf(0) != 0 || c.NodeOf(7) != 0 || c.NodeOf(8) != 1 {
		t.Fatal("NodeOf wrong")
	}
	if got := c.GroupLink(0, 8); got.Name != c.IntraNode.Name {
		t.Fatalf("group link in-node = %v", got.Name)
	}
	if got := c.GroupLink(4, 8); got.Name != c.InterNode.Name {
		t.Fatalf("group link cross-node = %v", got.Name)
	}
}

func TestLinkTime(t *testing.T) {
	l := Link{Latency: 1e-6, Bandwidth: 1e9}
	if got := l.Time(0); got != 1e-6 {
		t.Fatalf("zero-byte time = %v", got)
	}
	if got := l.Time(1e9); got <= 1.0 || got > 1.0+1e-5 {
		t.Fatalf("1GB over 1GB/s = %v, want ~1s", got)
	}
}

func TestAllReduce(t *testing.T) {
	l := Link{Latency: 0, Bandwidth: 1e9}
	if got := AllReduceTime(l, 1, 1000); got != 0 {
		t.Fatalf("single-rank all-reduce = %v, want 0", got)
	}
	// 2 ranks: 2*(1/2)*n/bw = n/bw.
	if got, want := AllReduceTime(l, 2, 1e9), 1.0; !close(got, want, 1e-9) {
		t.Fatalf("2-rank = %v, want %v", got, want)
	}
	// Monotone in group size for fixed bytes (ring factor 2(g-1)/g grows).
	prev := 0.0
	for g := 2; g <= 16; g++ {
		cur := AllReduceTime(l, g, 1<<20)
		if cur <= prev {
			t.Fatalf("all-reduce not increasing at g=%d: %v <= %v", g, cur, prev)
		}
		prev = cur
	}
}

func TestP2PTime(t *testing.T) {
	l := Link{Latency: 1e-6, Bandwidth: 1e9}
	if P2PTime(l, 0) != 0 {
		t.Fatal("p2p of 0 bytes should be free")
	}
	if got, want := P2PTime(l, 1000), l.Time(1000); got != want {
		t.Fatalf("p2p of 1000 bytes = %v, want link time %v", got, want)
	}
}

func TestLoadTimeTable4Shape(t *testing.T) {
	// Larger models take longer; DRAM is faster than SSD; loading is
	// parallel across nodes.
	sizes := []int64{78 << 30, 202 << 30, 350 << 30, 682 << 30} // fp16 39B..341B
	nodes := []int{2, 4, 4, 6}
	prevSSD := 0.0
	for i, sz := range sizes {
		ssd := LoadTime(sz, nodes[i], false)
		dram := LoadTime(sz, nodes[i], true)
		if dram >= ssd {
			t.Fatalf("DRAM load %.2f not faster than SSD %.2f", dram, ssd)
		}
		if ssd <= prevSSD {
			t.Fatalf("SSD load time not increasing: %v after %v", ssd, prevSSD)
		}
		prevSSD = ssd
	}
	if got := LoadTime(1<<30, 0, false); got <= 0 {
		t.Fatalf("LoadTime with 0 nodes = %v", got)
	}
}

func TestMemTracker(t *testing.T) {
	m := NewMemTracker(100)
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(50); err == nil {
		t.Fatal("expected OOM")
	} else if _, ok := err.(ErrOOM); !ok {
		t.Fatalf("error type %T, want ErrOOM", err)
	}
	if err := m.Alloc(40); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 100 || m.Peak() != 100 {
		t.Fatalf("used=%d peak=%d", m.Used(), m.Peak())
	}
	m.Free(30)
	if m.Used() != 70 || m.Peak() != 100 {
		t.Fatalf("after free used=%d peak=%d", m.Used(), m.Peak())
	}
	if err := m.Alloc(-1); err == nil {
		t.Fatal("negative alloc should error")
	}
}

func TestMemTrackerBadFreePanics(t *testing.T) {
	m := NewMemTracker(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-free")
		}
	}()
	m.Free(1)
}

func TestErrOOMMessage(t *testing.T) {
	e := ErrOOM{Want: 5, Used: 3, Capacity: 4}
	if e.Error() == "" {
		t.Fatal("empty error message")
	}
}

// Property: alloc/free sequences never drive used negative or above
// capacity, and peak >= used always.
func TestQuickMemTracker(t *testing.T) {
	f := func(ops []int16) bool {
		m := NewMemTracker(1 << 20)
		for _, op := range ops {
			if op >= 0 {
				_ = m.Alloc(int64(op))
			} else {
				n := int64(-op)
				if n > m.Used() {
					n = m.Used()
				}
				m.Free(n)
			}
			if m.Used() < 0 || m.Used() > m.Capacity || m.Peak() < m.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: all-reduce time is monotone nondecreasing in message size.
func TestQuickAllReduceMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return AllReduceTime(PCIe4x16, 4, lo) <= AllReduceTime(PCIe4x16, 4, hi)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func close(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps*(1+b)
}
