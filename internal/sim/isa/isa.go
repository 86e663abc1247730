// Package isa defines the micro-op vocabulary and the microarchitecture
// configurations for the SMT processor simulator.
//
// The execution-port model follows Figure 1 of the SMiTe paper (the Intel
// Sandy Bridge execution cluster): six ports, where ports 0, 1 and 5 host
// functional units and ports 2, 3 and 4 handle memory accesses, and several
// operations are port-specific (FP_MUL only on port 0, FP_ADD only on
// port 1, FP_SHF and branches only on port 5, INT_ADD on ports 0/1/5,
// loads on ports 2/3, stores on port 4).
package isa

import (
	"fmt"

	"repro/internal/isol"
)

// NumPorts is the number of execution ports in the modelled core.
const NumPorts = 6

// Port identifies one execution port (0..5).
type Port uint8

// PortMask is a bit set of ports a micro-op may issue to.
type PortMask uint8

// Has reports whether the mask contains port p.
func (m PortMask) Has(p Port) bool { return m&(1<<p) != 0 }

// Ports returns the ports contained in the mask, in ascending order.
func (m PortMask) Ports() []Port {
	var out []Port
	for p := Port(0); p < NumPorts; p++ {
		if m.Has(p) {
			out = append(out, p)
		}
	}
	return out
}

// Mask builds a PortMask from a list of ports.
func Mask(ports ...Port) PortMask {
	var m PortMask
	for _, p := range ports {
		m |= 1 << p
	}
	return m
}

// String renders the mask like "{0,1,5}".
func (m PortMask) String() string {
	s := "{"
	first := true
	for p := Port(0); p < NumPorts; p++ {
		if m.Has(p) {
			if !first {
				s += ","
			}
			s += fmt.Sprintf("%d", p)
			first = false
		}
	}
	return s + "}"
}

// UopKind enumerates the micro-op classes the simulator executes. The set is
// intentionally the one SMiTe's Rulers and findings are phrased in terms of.
type UopKind uint8

const (
	// Nop allocates a ROB slot but needs no port; used to thin out streams.
	Nop UopKind = iota
	// FPMul is a floating-point multiply (port 0 only; `mulps`).
	FPMul
	// FPAdd is a floating-point add (port 1 only; `addps`).
	FPAdd
	// FPShuf is a floating-point shuffle (port 5 only; `shufps`).
	FPShuf
	// IntAdd is an integer ALU op (ports 0, 1 and 5; `addl`).
	IntAdd
	// IntMul is an integer multiply (port 1 only).
	IntMul
	// Load is a memory load (ports 2 or 3).
	Load
	// Store is a memory store (port 4; address generation folded in).
	Store
	// Branch is a conditional branch (port 5).
	Branch

	// NumKinds is the number of micro-op kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	Nop:    "NOP",
	FPMul:  "FP_MUL",
	FPAdd:  "FP_ADD",
	FPShuf: "FP_SHF",
	IntAdd: "INT_ADD",
	IntMul: "INT_MUL",
	Load:   "LOAD",
	Store:  "STORE",
	Branch: "BRANCH",
}

// String returns the conventional name of the micro-op kind.
func (k UopKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("UopKind(%d)", int(k))
}

// IsMem reports whether the kind accesses the memory hierarchy.
func (k UopKind) IsMem() bool { return k == Load || k == Store }

// Uop is one micro-op produced by a workload or Ruler stream.
//
// Dependencies are expressed as backward distances within the same hardware
// context's dynamic stream: Dep1/Dep2 == d means "this uop consumes the
// result of the uop issued d instructions earlier"; 0 means no dependency.
// Dependency-free unrolled loops (the Rulers) simply leave both at zero.
type Uop struct {
	Kind UopKind
	// Dep1 and Dep2 are backward dependency distances (0 = none).
	Dep1, Dep2 uint16
	// Addr is the byte address for Load/Store kinds.
	Addr uint64
	// BrTag identifies the static branch for the branch predictor and
	// Taken is the actual outcome; both are meaningful only for Branch.
	BrTag uint32
	Taken bool
	// ICacheMiss marks a front-end instruction-cache miss attributed to
	// this uop's fetch (synthesised by the workload generator from the
	// workload's code footprint).
	ICacheMiss bool
	// ITLBMiss marks an instruction-TLB miss on this uop's fetch.
	ITLBMiss bool
}

// ReplacementPolicy selects a cache level's victim-selection policy.
type ReplacementPolicy uint8

const (
	// PolicyLRU is true least-recently-used replacement (L1-scale
	// structures, where hardware tracks exact recency).
	PolicyLRU ReplacementPolicy = iota
	// PolicyRandom is random replacement, approximating the
	// not-recently-used schemes of large L2/L3 arrays. Its smooth,
	// rate-proportional sharing between competing contexts is what makes
	// cache interference respond continuously to co-runner pressure.
	PolicyRandom
)

// CacheParams describes one cache level.
type CacheParams struct {
	SizeBytes int
	Ways      int
	LineBytes int
	// LatencyCycles is the load-to-use latency on a hit at this level.
	LatencyCycles uint64
	Policy        ReplacementPolicy
}

// MaxContextsPerCore bounds the SMT width the engine models. Eight covers
// every generation the policy literature studies (2-way HyperThreading
// through POWER8/9 SMT8).
const MaxContextsPerCore = 8

// CoreClass describes one class of cores in an asymmetric (big/little)
// configuration: a contiguous run of Cores cores that overrides the
// chip-level execution cluster and private caches. Chip-level resources
// (L3, memory controller, front-end widths, ROB geometry, predictor and
// TLB sizing) stay uniform — heterogeneity on real hybrid parts is
// concentrated in the execution ports and private cache capacities, which
// is exactly what SMiTe's port-specific Rulers are sensitive to.
type CoreClass struct {
	// Name labels the class in reports ("big", "little").
	Name string
	// Cores is how many consecutive cores belong to this class; the classes
	// partition [0, Config.Cores) in declaration order.
	Cores int
	// PortMap and Latency override the chip-level execution cluster.
	PortMap [NumKinds]PortMask
	Latency [NumKinds]uint64
	// L1D and L2 override the private cache geometry.
	L1D, L2 CacheParams
}

// Sets returns the number of sets implied by the geometry.
func (c CacheParams) Sets() int {
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// Config is a full microarchitecture description. The two stock
// configurations mirror Table I of the paper.
type Config struct {
	// Name identifies the configuration ("Sandy Bridge-EN", "Ivy Bridge").
	Name string
	// FrequencyGHz is used only for reporting; the simulator is cycle-based.
	FrequencyGHz float64

	// Cores is the number of physical cores; ContextsPerCore the number of
	// SMT hardware contexts per core (2 for HyperThreading).
	Cores           int
	ContextsPerCore int

	// FetchWidth is the per-cycle front-end allocation width (shared
	// between the contexts of a core by cycle alternation). RetireWidth is
	// the in-order retirement width per context per cycle.
	FetchWidth  int
	RetireWidth int
	// ROBSize is the per-context reorder-buffer capacity.
	ROBSize int
	// IssueScanDepth bounds the per-port scheduler scan into each
	// context's ROB (models finite reservation-station reach).
	IssueScanDepth int
	// MSHRsPerContext caps memory-level parallelism: the number of
	// outstanding L1 misses a context may have in flight.
	MSHRsPerContext int

	// PortMap assigns each uop kind its legal issue ports; Latency the
	// execution latency in cycles (memory kinds use the hierarchy instead).
	PortMap [NumKinds]PortMask
	Latency [NumKinds]uint64

	// L1D and L2 are private per core (shared by its SMT contexts); L3 is
	// shared chip-wide.
	L1D, L2, L3 CacheParams

	// MemBaseLatency is the DRAM access latency beyond L3; requests are
	// additionally serialised at one per MemServiceInterval cycles
	// chip-wide, so queueing delay emerges under bandwidth pressure.
	MemBaseLatency     uint64
	MemServiceInterval uint64

	// MispredictPenalty is the front-end refill delay after a branch
	// misprediction resolves.
	MispredictPenalty uint64
	// BranchPredictorEntries sizes the 2-bit counter table.
	BranchPredictorEntries int

	// DTLBEntries and PageBytes describe the data TLB; a DTLB miss adds
	// DTLBMissPenalty cycles to the access. ITLBMissPenalty stalls the
	// front-end when a stream flags an ITLB miss; ICacheMissPenalty
	// likewise for instruction-cache misses.
	DTLBEntries       int
	PageBytes         int
	DTLBMissPenalty   uint64
	ITLBMissPenalty   uint64
	ICacheMissPenalty uint64

	// StoreLatency is the store-buffer completion latency.
	StoreLatency uint64

	// StreamPrefetcher enables the per-context sequential-stream
	// prefetcher: demand misses that continue a detected ascending line
	// stream are served at L2 latency plus any memory-bandwidth queueing
	// delay (an idealised stream prefetcher with full coverage; bandwidth
	// consumption is still charged). PrefetchStreams is the number of
	// concurrent streams tracked per context.
	StreamPrefetcher bool
	PrefetchStreams  int

	// Classes, when non-empty, partitions the chip's cores into consecutive
	// asymmetric classes (sum of class Cores == Cores), each with its own
	// execution ports, latencies and private caches. Empty means every core
	// uses the chip-level PortMap/Latency/L1D/L2 — the homogeneous case, and
	// bit-identical to configurations predating this field.
	Classes []CoreClass

	// Isolation is the hardware QoS-enforcement policy (LLC way
	// partitioning, memory-bandwidth throttling) applied to this chip; the
	// zero value disables every mechanism and leaves simulation results
	// bit-identical to configurations predating this field. See
	// internal/isol.
	Isolation isol.Policy
}

// CoreClassOf returns the class index and class of the given core, or
// (-1, nil) when the configuration is homogeneous.
func (c *Config) CoreClassOf(core int) (int, *CoreClass) {
	if len(c.Classes) == 0 {
		return -1, nil
	}
	for i := range c.Classes {
		if core < c.Classes[i].Cores {
			return i, &c.Classes[i]
		}
		core -= c.Classes[i].Cores
	}
	return -1, nil
}

// Contexts returns the total number of hardware contexts on the chip.
func (c Config) Contexts() int { return c.Cores * c.ContextsPerCore }

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.ContextsPerCore <= 0 {
		return fmt.Errorf("isa: config %q: need positive cores (%d) and contexts per core (%d)", c.Name, c.Cores, c.ContextsPerCore)
	}
	if c.ContextsPerCore > MaxContextsPerCore {
		return fmt.Errorf("isa: config %q: the engine models at most %d SMT contexts per core, got %d", c.Name, MaxContextsPerCore, c.ContextsPerCore)
	}
	if c.FetchWidth <= 0 || c.RetireWidth <= 0 || c.ROBSize <= 0 {
		return fmt.Errorf("isa: config %q: widths and ROB size must be positive", c.Name)
	}
	if c.ROBSize&(c.ROBSize-1) != 0 {
		return fmt.Errorf("isa: config %q: ROB size %d must be a power of two", c.Name, c.ROBSize)
	}
	if c.IssueScanDepth <= 0 || c.IssueScanDepth > c.ROBSize {
		return fmt.Errorf("isa: config %q: issue scan depth %d out of range (1..%d)", c.Name, c.IssueScanDepth, c.ROBSize)
	}
	if c.MSHRsPerContext <= 0 {
		return fmt.Errorf("isa: config %q: need at least one MSHR per context", c.Name)
	}
	for _, cp := range []struct {
		name string
		p    CacheParams
	}{{"L1D", c.L1D}, {"L2", c.L2}, {"L3", c.L3}} {
		p := cp.p
		if p.SizeBytes <= 0 || p.Ways <= 0 || p.LineBytes <= 0 {
			return fmt.Errorf("isa: config %q: %s geometry must be positive", c.Name, cp.name)
		}
		if p.SizeBytes%(p.Ways*p.LineBytes) != 0 {
			return fmt.Errorf("isa: config %q: %s size %d not divisible by ways*line", c.Name, cp.name, p.SizeBytes)
		}
		if s := p.Sets(); s&(s-1) != 0 {
			return fmt.Errorf("isa: config %q: %s set count %d is not a power of two", c.Name, cp.name, s)
		}
		if p.LineBytes > c.L3.LineBytes {
			return fmt.Errorf("isa: config %q: %s line %d B is larger than the L3 line %d B", c.Name, cp.name, p.LineBytes, c.L3.LineBytes)
		}
	}
	if c.MemServiceInterval == 0 {
		return fmt.Errorf("isa: config %q: memory service interval must be positive", c.Name)
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("isa: config %q: page size must be a positive power of two", c.Name)
	}
	if c.BranchPredictorEntries <= 0 || c.BranchPredictorEntries&(c.BranchPredictorEntries-1) != 0 {
		return fmt.Errorf("isa: config %q: branch predictor entries must be a positive power of two", c.Name)
	}
	for k := UopKind(1); k < NumKinds; k++ {
		if c.PortMap[k] == 0 {
			return fmt.Errorf("isa: config %q: kind %s has no legal port", c.Name, k)
		}
	}
	if c.DTLBEntries < c.ContextsPerCore {
		return fmt.Errorf("isa: config %q: %d DTLB entries cannot be partitioned across %d contexts", c.Name, c.DTLBEntries, c.ContextsPerCore)
	}
	if len(c.Classes) > 0 {
		total := 0
		for i := range c.Classes {
			cl := &c.Classes[i]
			if cl.Cores <= 0 {
				return fmt.Errorf("isa: config %q: core class %d (%q) must span at least one core", c.Name, i, cl.Name)
			}
			total += cl.Cores
			for _, cp := range []struct {
				name string
				p    CacheParams
			}{{"L1D", cl.L1D}, {"L2", cl.L2}} {
				p := cp.p
				if p.SizeBytes <= 0 || p.Ways <= 0 || p.LineBytes <= 0 {
					return fmt.Errorf("isa: config %q: class %q %s geometry must be positive", c.Name, cl.Name, cp.name)
				}
				if p.SizeBytes%(p.Ways*p.LineBytes) != 0 {
					return fmt.Errorf("isa: config %q: class %q %s size %d not divisible by ways*line", c.Name, cl.Name, cp.name, p.SizeBytes)
				}
				if s := p.Sets(); s&(s-1) != 0 {
					return fmt.Errorf("isa: config %q: class %q %s set count %d is not a power of two", c.Name, cl.Name, cp.name, s)
				}
				if p.LineBytes > c.L3.LineBytes {
					return fmt.Errorf("isa: config %q: class %q %s line %d B is larger than the L3 line %d B", c.Name, cl.Name, cp.name, p.LineBytes, c.L3.LineBytes)
				}
			}
			for k := UopKind(1); k < NumKinds; k++ {
				if cl.PortMap[k] == 0 {
					return fmt.Errorf("isa: config %q: class %q kind %s has no legal port", c.Name, cl.Name, k)
				}
			}
		}
		if total != c.Cores {
			return fmt.Errorf("isa: config %q: core classes span %d cores, chip has %d", c.Name, total, c.Cores)
		}
	}
	if err := c.Isolation.Validate(c.Contexts(), c.L3.Ways); err != nil {
		return fmt.Errorf("isa: config %q: %w", c.Name, err)
	}
	return nil
}

// sandyBridgePortMap is the Figure 1 port assignment shared by both stock
// configurations (Ivy Bridge keeps Sandy Bridge's execution cluster).
func sandyBridgePortMap() [NumKinds]PortMask {
	var m [NumKinds]PortMask
	m[FPMul] = Mask(0)
	m[FPAdd] = Mask(1)
	m[FPShuf] = Mask(5)
	m[IntAdd] = Mask(0, 1, 5)
	m[IntMul] = Mask(1)
	m[Load] = Mask(2, 3)
	m[Store] = Mask(4)
	m[Branch] = Mask(5)
	return m
}

func sandyBridgeLatencies() [NumKinds]uint64 {
	var l [NumKinds]uint64
	l[Nop] = 1
	l[FPMul] = 5
	l[FPAdd] = 3
	l[FPShuf] = 1
	l[IntAdd] = 1
	l[IntMul] = 3
	l[Branch] = 1
	// Load/Store latencies come from the memory hierarchy.
	return l
}

func baseConfig() Config {
	return Config{
		ContextsPerCore:        2,
		FetchWidth:             4,
		RetireWidth:            4,
		ROBSize:                128,
		IssueScanDepth:         32,
		MSHRsPerContext:        10,
		PortMap:                sandyBridgePortMap(),
		Latency:                sandyBridgeLatencies(),
		L1D:                    CacheParams{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 4, Policy: PolicyLRU},
		L2:                     CacheParams{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 12, Policy: PolicyRandom},
		MemBaseLatency:         180,
		MemServiceInterval:     8,
		MispredictPenalty:      15,
		BranchPredictorEntries: 4096,
		DTLBEntries:            512, // models the L1 DTLB + STLB reach
		PageBytes:              4096,
		DTLBMissPenalty:        25,
		ITLBMissPenalty:        20,
		ICacheMissPenalty:      8,
		StoreLatency:           3,
		StreamPrefetcher:       true,
		PrefetchStreams:        4,
	}
}

// SandyBridgeEN models the Intel Xeon E5-2420 from Table I: 6 cores, 12 SMT
// contexts, 15 MiB shared L3, 1.9 GHz.
func SandyBridgeEN() Config {
	c := baseConfig()
	c.Name = "Sandy Bridge-EN (Xeon E5-2420)"
	c.FrequencyGHz = 1.9
	c.Cores = 6
	c.L3 = CacheParams{SizeBytes: 15 << 20, Ways: 20, LineBytes: 64, LatencyCycles: 34, Policy: PolicyRandom}
	// 15 MiB / 20 ways / 64 B = 12288 sets: not a power of two; round the
	// modelled capacity to 16 MiB to keep power-of-two indexing.
	c.L3.SizeBytes = 16 << 20
	c.L3.Ways = 16
	return c
}

// Power7Like models an IBM POWER7-flavoured core, the other SMT
// microarchitecture the paper names when arguing the port-specific Ruler
// principle generalises (Section III-B1): two symmetric floating-point
// pipelines (both execute multiplies and adds), two fixed-point units, two
// load/store units and a branch pipeline. Note the consequence for Ruler
// design: FP_MUL and FP_ADD share the same ports here, so the two
// dimensions collapse into one — Ruler suites are per-microarchitecture.
func Power7Like() Config {
	c := baseConfig()
	c.Name = "POWER7-like"
	c.FrequencyGHz = 3.55
	c.Cores = 8
	var m [NumKinds]PortMask
	m[FPMul] = Mask(0, 1)  // FPU0/FPU1, symmetric
	m[FPAdd] = Mask(0, 1)  // FPU0/FPU1, symmetric
	m[FPShuf] = Mask(1)    // VSX permute pipe
	m[IntAdd] = Mask(2, 3) // FXU0/FXU1
	m[IntMul] = Mask(2)
	m[Load] = Mask(4, 5) // LSU0/LSU1
	m[Store] = Mask(4, 5)
	m[Branch] = Mask(3) // branch resolves in the FXU cluster
	c.PortMap = m
	c.L3 = CacheParams{SizeBytes: 32 << 20, Ways: 16, LineBytes: 64, LatencyCycles: 40, Policy: PolicyRandom}
	return c
}

// IvyBridge models the Intel i7-3770 from Table I: 4 cores, 8 SMT contexts,
// 8 MiB shared L3, 3.4 GHz.
func IvyBridge() Config {
	c := baseConfig()
	c.Name = "Ivy Bridge (i7-3770)"
	c.FrequencyGHz = 3.4
	c.Cores = 4
	c.L3 = CacheParams{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, LatencyCycles: 30, Policy: PolicyRandom}
	return c
}

// Power8SMT4 models a POWER8-flavoured 4-way SMT part: the POWER7-like
// execution cluster with four hardware contexts per core. It is the stock
// >2-way generation the heterogeneous-fleet studies mix in.
func Power8SMT4() Config {
	c := Power7Like()
	c.Name = "POWER8-like SMT4"
	c.FrequencyGHz = 3.3
	c.Cores = 4
	c.ContextsPerCore = 4
	c.L3 = CacheParams{SizeBytes: 16 << 20, Ways: 16, LineBytes: 64, LatencyCycles: 40, Policy: PolicyRandom}
	return c
}

// BigLittle models an asymmetric hybrid part: four "big" cores with the
// full Sandy Bridge execution cluster next to four "little" cores with a
// narrower port map, slower functional units and half-size private caches.
// Both classes run 2-way SMT and share an 8 MiB L3.
func BigLittle() Config {
	c := baseConfig()
	c.Name = "Hybrid big.LITTLE-like"
	c.FrequencyGHz = 2.8
	c.Cores = 8
	c.L3 = CacheParams{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, LatencyCycles: 36, Policy: PolicyRandom}
	littlePorts := [NumKinds]PortMask{}
	littlePorts[FPMul] = Mask(0)
	littlePorts[FPAdd] = Mask(0)
	littlePorts[FPShuf] = Mask(1)
	littlePorts[IntAdd] = Mask(0, 1)
	littlePorts[IntMul] = Mask(1)
	littlePorts[Load] = Mask(2)
	littlePorts[Store] = Mask(3)
	littlePorts[Branch] = Mask(1)
	littleLat := sandyBridgeLatencies()
	littleLat[FPMul] = 7
	littleLat[FPAdd] = 4
	littleLat[IntMul] = 4
	c.Classes = []CoreClass{
		{
			Name: "big", Cores: 4,
			PortMap: sandyBridgePortMap(), Latency: sandyBridgeLatencies(),
			L1D: c.L1D, L2: c.L2,
		},
		{
			Name: "little", Cores: 4,
			PortMap: littlePorts, Latency: littleLat,
			L1D: CacheParams{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, LatencyCycles: 3, Policy: PolicyLRU},
			L2:  CacheParams{SizeBytes: 128 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 11, Policy: PolicyRandom},
		},
	}
	return c
}

// MachineGen is a named machine generation a heterogeneous fleet can mix:
// a short CLI-friendly name bound to a stock configuration constructor.
type MachineGen struct {
	// Name is the short identifier used by -machine / -machine-mix flags.
	Name string
	// Make builds a fresh configuration for the generation.
	Make func() Config
}

// MachineGens lists every named machine generation, in a stable order.
func MachineGens() []MachineGen {
	return []MachineGen{
		{Name: "snb", Make: SandyBridgeEN},
		{Name: "ivb", Make: IvyBridge},
		{Name: "power7", Make: Power7Like},
		{Name: "smt4", Make: Power8SMT4},
		{Name: "biglittle", Make: BigLittle},
	}
}

// MachineGenByName resolves a generation by its short name.
func MachineGenByName(name string) (Config, error) {
	for _, g := range MachineGens() {
		if g.Name == name {
			return g.Make(), nil
		}
	}
	names := ""
	for i, g := range MachineGens() {
		if i > 0 {
			names += ", "
		}
		names += g.Name
	}
	return Config{}, fmt.Errorf("isa: unknown machine generation %q (have %s)", name, names)
}
