// Package hw models the GPU clusters of the ExeGPT evaluation (Table 2):
// device compute/memory characteristics, intra- and inter-node
// interconnects, collective-communication costs, and host storage used
// for model (re)deployment (Table 4).
//
// The package replaces the paper's physical A40 and A100 clusters; every
// quantity the scheduler or runner consumes (kernel roofline inputs,
// all-reduce times, memory capacities, load bandwidths) is derived from
// the specs defined here.
package hw

import "fmt"

// GPUSpec describes one GPU model.
type GPUSpec struct {
	Name string
	// MemoryBytes is the device HBM/GDDR capacity.
	MemoryBytes int64
	// PeakFLOPS is the peak dense FP16 tensor throughput (FLOP/s).
	PeakFLOPS float64
	// MemBandwidth is the device memory bandwidth (bytes/s).
	MemBandwidth float64
	// KernelLaunchOverhead is the fixed per-kernel launch latency (s).
	KernelLaunchOverhead float64
}

// Predefined GPU models used in the paper's evaluation.
var (
	// A40: 48 GB GDDR6, ~149.7 TFLOPS FP16 tensor (with sparsity off),
	// 696 GB/s memory bandwidth.
	A40 = GPUSpec{
		Name:                 "A40",
		MemoryBytes:          48 << 30,
		PeakFLOPS:            149.7e12,
		MemBandwidth:         696e9,
		KernelLaunchOverhead: 6e-6,
	}
	// A100-80G: 80 GB HBM2e, 312 TFLOPS FP16 tensor, 2039 GB/s.
	A100 = GPUSpec{
		Name:                 "A100",
		MemoryBytes:          80 << 30,
		PeakFLOPS:            312e12,
		MemBandwidth:         2039e9,
		KernelLaunchOverhead: 5e-6,
	}
)

// Link describes a communication channel with an α-β cost model:
// transferring n bytes costs Latency + n/Bandwidth seconds.
type Link struct {
	Name      string
	Latency   float64 // seconds
	Bandwidth float64 // bytes/s
}

// Time returns the α-β transfer time for n bytes.
func (l Link) Time(n int64) float64 {
	if n <= 0 {
		return l.Latency
	}
	return l.Latency + float64(n)/l.Bandwidth
}

// Predefined interconnects (per-direction effective bandwidths).
var (
	// PCIe4x16: ~25 GB/s effective.
	PCIe4x16 = Link{Name: "PCIe4.0x16", Latency: 5e-6, Bandwidth: 25e9}
	// NVLink3: ~250 GB/s effective aggregate per GPU pair group.
	NVLink3 = Link{Name: "NVLink3", Latency: 3e-6, Bandwidth: 250e9}
	// Infiniband100: 100 Gb/s HDR (A40 cluster inter-node).
	Infiniband100 = Link{Name: "IB-100Gb", Latency: 8e-6, Bandwidth: 12.5e9}
	// Infiniband1600: 8x200 Gb/s (A100 cluster inter-node).
	Infiniband1600 = Link{Name: "IB-1.6Tb", Latency: 8e-6, Bandwidth: 200e9}
	// HostDMA approximates GPU<->CPU staging over PCIe with pinned memory.
	HostDMA = Link{Name: "HostDMA", Latency: 10e-6, Bandwidth: 20e9}
)

// Storage bandwidths for model deployment (Table 4).
const (
	// SSDBandwidth is per-node NVMe read bandwidth (bytes/s).
	SSDBandwidth = 6e9
	// DRAMBandwidth is per-node host-DRAM to GPU staging bandwidth.
	DRAMBandwidth = 14e9
)

// Cluster describes a homogeneous GPU cluster.
type Cluster struct {
	Name        string
	GPU         GPUSpec
	GPUsPerNode int
	Nodes       int
	// IntraNode connects GPUs within one node, InterNode connects nodes.
	IntraNode Link
	InterNode Link
}

// Predefined clusters from Table 2.
var (
	// A40Cluster: 6 nodes x 8 A40, PCIe 4.0 intra, 100Gb IB inter.
	A40Cluster = Cluster{
		Name: "A40", GPU: A40, GPUsPerNode: 8, Nodes: 6,
		IntraNode: PCIe4x16, InterNode: Infiniband100,
	}
	// A100Cluster: 2 nodes x 8 A100, NVLink intra, 1.6Tb IB inter.
	A100Cluster = Cluster{
		Name: "A100", GPU: A100, GPUsPerNode: 8, Nodes: 2,
		IntraNode: NVLink3, InterNode: Infiniband1600,
	}
)

// TotalGPUs returns the number of GPUs in the cluster.
func (c Cluster) TotalGPUs() int { return c.GPUsPerNode * c.Nodes }

// Validate reports configuration errors.
func (c Cluster) Validate() error {
	if c.GPUsPerNode <= 0 || c.Nodes <= 0 {
		return fmt.Errorf("hw: cluster %q must have positive nodes and GPUs per node", c.Name)
	}
	if c.GPU.PeakFLOPS <= 0 || c.GPU.MemBandwidth <= 0 || c.GPU.MemoryBytes <= 0 {
		return fmt.Errorf("hw: cluster %q has invalid GPU spec", c.Name)
	}
	if c.IntraNode.Bandwidth <= 0 || c.InterNode.Bandwidth <= 0 {
		return fmt.Errorf("hw: cluster %q has invalid links", c.Name)
	}
	return nil
}

// Sub returns a logical sub-cluster restricted to n GPUs (allocated
// node-by-node), used to deploy a model on fewer GPUs than the full
// cluster (Table 2 deployments).
func (c Cluster) Sub(n int) (Cluster, error) {
	if n <= 0 || n > c.TotalGPUs() {
		return Cluster{}, fmt.Errorf("hw: sub-cluster of %d GPUs out of range 1..%d", n, c.TotalGPUs())
	}
	sub := c
	if n <= c.GPUsPerNode {
		sub.Nodes = 1
		sub.GPUsPerNode = n
		return sub, nil
	}
	if n%c.GPUsPerNode != 0 {
		return Cluster{}, fmt.Errorf("hw: sub-cluster of %d GPUs must be a multiple of node size %d", n, c.GPUsPerNode)
	}
	sub.Nodes = n / c.GPUsPerNode
	return sub, nil
}

// NodeOf returns the node index hosting the given GPU rank.
func (c Cluster) NodeOf(rank int) int { return rank / c.GPUsPerNode }

// GroupLink returns the slowest link among a tensor-parallel group of
// consecutive ranks [first, first+size); collectives are bottlenecked by
// the slowest participating link.
func (c Cluster) GroupLink(first, size int) Link {
	link := c.IntraNode
	for r := first + 1; r < first+size; r++ {
		if c.NodeOf(r) != c.NodeOf(first) {
			link = c.InterNode
			break
		}
	}
	return link
}

// AllReduceTime returns the ring all-reduce time for n bytes across a
// group of the given size connected by link: 2(g-1)/g * n / bw plus
// per-step latencies.
func AllReduceTime(link Link, groupSize int, n int64) float64 {
	if groupSize <= 1 || n <= 0 {
		return 0
	}
	g := float64(groupSize)
	steps := 2 * (g - 1)
	return steps*link.Latency + (2*(g-1)/g)*float64(n)/link.Bandwidth
}

// P2PTime returns the point-to-point transfer time for n bytes.
func P2PTime(link Link, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return link.Time(n)
}

// LoadTime returns the time to load modelBytes onto the given number of
// nodes in parallel from SSD or DRAM (Table 4), including a fixed
// per-deployment setup cost.
func LoadTime(modelBytes int64, nodes int, fromDRAM bool) float64 {
	if nodes <= 0 {
		nodes = 1
	}
	bw := SSDBandwidth
	setup := 0.9 // process launch + CUDA context + cudaMemcpy setup
	if fromDRAM {
		bw = DRAMBandwidth
		setup = 0.5
	}
	perNode := float64(modelBytes) / float64(nodes)
	return setup + perNode/bw
}

// MemTracker tracks memory allocation on one GPU.
type MemTracker struct {
	Capacity int64
	used     int64
	peak     int64
}

// NewMemTracker returns a tracker with the given capacity in bytes.
func NewMemTracker(capacity int64) *MemTracker {
	return &MemTracker{Capacity: capacity}
}

// ErrOOM is returned when an allocation exceeds capacity.
type ErrOOM struct {
	Want, Used, Capacity int64
}

func (e ErrOOM) Error() string {
	return fmt.Sprintf("hw: out of memory: want %d, used %d of %d", e.Want, e.Used, e.Capacity)
}

// Alloc reserves n bytes, returning ErrOOM if it does not fit.
func (m *MemTracker) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("hw: negative allocation %d", n)
	}
	if m.used+n > m.Capacity {
		return ErrOOM{Want: n, Used: m.used, Capacity: m.Capacity}
	}
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// Free releases n bytes. Freeing more than allocated panics: it is a
// bookkeeping bug in the caller.
func (m *MemTracker) Free(n int64) {
	if n < 0 || n > m.used {
		panic(fmt.Sprintf("hw: bad free of %d with %d used", n, m.used))
	}
	m.used -= n
}

// Used returns the bytes currently allocated.
func (m *MemTracker) Used() int64 { return m.used }

// Peak returns the high-water mark.
func (m *MemTracker) Peak() int64 { return m.peak }
