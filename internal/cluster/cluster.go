// Package cluster assembles simulated machines into the paper's testbeds
// (Table 2): Apt (Intel Xeon E5-2450, ConnectX-3 56 Gbps InfiniBand,
// PCIe 3.0 x8) and Susitna (AMD Opteron 6272, ConnectX-3 40 Gbps RoCE,
// PCIe 2.0 x8).
package cluster

import (
	"fmt"

	"herdkv/internal/fault"
	"herdkv/internal/hostmem"
	"herdkv/internal/nic"
	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// defaultTelemetry, when set via SetDefaultTelemetry, is attached to
// every cluster built by New. CLI front ends use it to instrument all
// experiments without threading a sink through each one; tests leave it
// nil and pay nothing.
var defaultTelemetry *telemetry.Sink

// SetDefaultTelemetry installs (or, with nil, removes) the sink that New
// attaches to freshly built clusters.
func SetDefaultTelemetry(s *telemetry.Sink) { defaultTelemetry = s }

// Spec describes one testbed configuration.
type Spec struct {
	Name     string
	MaxNodes int    // cluster size in the paper
	CPUDesc  string // Table 2 hardware strings
	NICDesc  string
	Cores    int // cores per machine usable by server processes

	Link wire.Params
	PCIe pcie.Params
	NIC  nic.Params
	Host hostmem.Params

	// Faults, when non-nil, is a chaos schedule injected into the
	// cluster's fabric and engine at construction: New builds a
	// fault.Injector over it (reachable via Cluster.Faults). Register
	// crash targets on the injector and Arm it before running.
	Faults *fault.Schedule
}

// Apt returns the Emulab Apt testbed configuration.
func Apt() Spec {
	return Spec{
		Name:     "Apt",
		MaxNodes: 187,
		CPUDesc:  "Intel Xeon E5-2450 CPUs",
		NICDesc:  "ConnectX-3 MX354A (56 Gbps IB) via PCIe 3.0 x8",
		Cores:    16,
		Link:     wire.InfiniBand56(),
		PCIe:     pcie.Gen3x8(),
		NIC:      nic.ConnectX3(),
		Host:     hostmem.DefaultParams(),
	}
}

// Susitna returns the NSF PRObE Susitna testbed configuration (the RoCE
// variant the paper evaluates in Figures 9 and 10).
func Susitna() Spec {
	h := hostmem.DefaultParams()
	// Opteron 6272 modules are slower per-core than the Xeons.
	h.PostSend = sim.NS(150)
	h.PollCheck = sim.NS(35)
	return Spec{
		Name:     "Susitna",
		MaxNodes: 36,
		CPUDesc:  "AMD Opteron 6272 CPUs",
		NICDesc:  "CX-3 MX353A (40 Gbps IB) and CX-3 MX313A (40 Gbps RoCE) via PCIe 2.0 x8",
		Cores:    16,
		Link:     wire.RoCE40(),
		PCIe:     pcie.Gen2x8(),
		NIC:      nic.ConnectX3(),
		Host:     h,
	}
}

// Table2 returns the paper's cluster table.
func Table2() []Spec { return []Spec{Apt(), Susitna()} }

// String formats the spec as a Table 2 row.
func (s Spec) String() string {
	return fmt.Sprintf("%-8s %3d nodes  %s. %s", s.Name, s.MaxNodes, s.CPUDesc, s.NICDesc)
}

// Machine is one simulated host: verbs endpoint plus CPU model.
type Machine struct {
	Verbs *verbs.Host
	CPU   *hostmem.Host
	Bus   *pcie.Bus

	// Seed is this machine's deterministic seed (derived from the
	// cluster seed and machine index); client-side jittered backoff
	// draws from it so retry timing replays exactly.
	Seed int64
}

// Cluster is a set of machines on one fabric sharing a simulation engine.
type Cluster struct {
	Eng      *sim.Engine
	Net      *wire.Network
	Spec     Spec
	machines []*Machine
	seed     int64
	tel      *telemetry.Sink
	inj      *fault.Injector
}

// New builds a cluster of n machines under spec. If a default telemetry
// sink is installed (SetDefaultTelemetry), the cluster is born
// instrumented. A Spec.Faults schedule is bound to the fabric here; an
// invalid schedule panics (construct schedules via fault.ParseSchedule
// or validate them first to surface errors as errors).
func New(spec Spec, n int, seed int64) *Cluster {
	eng := sim.New()
	net := wire.NewNetwork(eng, spec.Link)
	c := &Cluster{Eng: eng, Net: net, Spec: spec, seed: seed, tel: defaultTelemetry}
	if spec.Faults != nil {
		inj, err := fault.NewInjector(net, spec.Faults, seed+0x7a11)
		if err != nil {
			panic(err)
		}
		c.inj = inj
		if c.tel != nil {
			inj.SetTelemetry(c.tel)
		}
	}
	for i := 0; i < n; i++ {
		c.AddMachine()
	}
	return c
}

// Faults returns the fault injector bound by Spec.Faults, or nil when
// the cluster runs fault-free.
func (c *Cluster) Faults() *fault.Injector { return c.inj }

// SetTelemetry attaches sink s to the cluster and to every machine built
// so far. Call it before queue pairs are created: per-QP counters and CQ
// gauges bind at CreateQP time.
func (c *Cluster) SetTelemetry(s *telemetry.Sink) {
	c.tel = s
	for _, m := range c.machines {
		c.instrument(m)
	}
	if c.inj != nil {
		c.inj.SetTelemetry(s)
	}
}

// Telemetry returns the cluster's sink (nil when un-instrumented).
func (c *Cluster) Telemetry() *telemetry.Sink { return c.tel }

func (c *Cluster) instrument(m *Machine) {
	m.Bus.SetTelemetry(c.tel)
	m.Verbs.NIC().SetTelemetry(c.tel)
	m.Verbs.SetTelemetry(c.tel)
}

// AddMachine attaches one more machine and returns it.
func (c *Cluster) AddMachine() *Machine {
	id := wire.NodeID(len(c.machines))
	bus := pcie.NewBus(c.Eng, c.Spec.PCIe)
	n := nic.New(c.Eng, c.Spec.NIC, bus, c.Net, id)
	m := &Machine{
		Verbs: verbs.NewHost(c.Eng, n),
		CPU:   hostmem.NewHost(c.Eng, c.Spec.Host, c.Spec.Cores, c.seed+int64(id)+1),
		Bus:   bus,
		Seed:  c.seed + int64(id) + 1,
	}
	if c.tel != nil {
		c.instrument(m)
	}
	c.machines = append(c.machines, m)
	return m
}

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.machines) }

// Machine returns machine i.
func (c *Cluster) Machine(i int) *Machine { return c.machines[i] }
