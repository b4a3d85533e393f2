// Package fault is a deterministic, virtual-time fault-injection
// subsystem for the simulated cluster. A Schedule is a script of timed
// fault events — per-link blackouts and degradation windows, asymmetric
// partitions between machine sets, packet-corruption bursts, and
// server-process crash+restart — and an Injector binds one schedule to
// a fabric and engine, deciding every packet's fate through
// wire.SetFaultHook and firing crash/restart callbacks at their
// scheduled instants.
//
// Everything is driven by the simulation clock and a seeded RNG, so a
// chaos run replays byte-identically for a given (schedule, seed) pair.
// The paper gives up transport-level reliability (Section 7) and argues
// applications must handle loss themselves; this package is the test
// harness for that claim. See docs/ROBUSTNESS.md.
package fault

import (
	"fmt"
	"sort"

	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/wire"
)

// Kind enumerates fault event types.
type Kind int

const (
	// Loss degrades every link with an extra drop probability for the
	// event window.
	Loss Kind = iota
	// Blackout drops every packet on one directional link (Both widens
	// it to both directions) for the event window.
	Blackout
	// Degrade adds a drop probability to one directional link.
	Degrade
	// Corrupt delivers packets on one directional link with damaged
	// payloads at the given rate.
	Corrupt
	// Partition severs traffic between two machine sets. Asym severs
	// only the A->B direction (B can still reach A).
	Partition
	// Crash kills the process registered for Node at time At and, if
	// RestartAt > At, restarts it then.
	Crash
	// FlushCrash is Crash landing mid-group-commit: a target with a
	// write-ahead log loses power between append and flush completion,
	// leaving a torn log tail its recovery must truncate (targets
	// without a WAL just crash). Same fields as Crash.
	FlushCrash
)

// String returns the script keyword for the kind.
func (k Kind) String() string {
	switch k {
	case Loss:
		return "loss"
	case Blackout:
		return "blackout"
	case Degrade:
		return "degrade"
	case Corrupt:
		return "corrupt"
	case Partition:
		return "partition"
	case Crash:
		return "crash"
	case FlushCrash:
		return "flushcrash"
	}
	return "?"
}

// Event is one scripted fault. Which fields matter depends on Kind; the
// window [From, Until) applies to every kind except Crash, which uses
// the instants At and RestartAt.
type Event struct {
	Kind Kind

	From, Until sim.Time // window events: active for From <= now < Until

	Src, Dst wire.NodeID // Blackout/Degrade/Corrupt: the directional link
	Both     bool        // Blackout/Degrade/Corrupt: apply to both directions

	A, B []wire.NodeID // Partition: the two machine sets
	Asym bool          // Partition: sever only A->B

	Rate float64 // Loss/Degrade: drop probability; Corrupt: corruption probability

	Node      wire.NodeID // Crash: the machine whose server process dies
	At        sim.Time    // Crash: crash instant
	RestartAt sim.Time    // Crash: restart instant (0 = never restarts)

	// Nemesis marks an event produced by NemesisConfig.Generate rather
	// than a hand-written script line (telemetry only).
	Nemesis bool
}

// Schedule is an ordered script of fault events.
type Schedule struct {
	Events []Event
}

// Validate checks internal consistency: windows must be well-formed,
// rates must be probabilities, restarts must follow crashes.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		switch e.Kind {
		case Crash, FlushCrash:
			if e.RestartAt != 0 && e.RestartAt <= e.At {
				return fmt.Errorf("fault: event %d: restart %v not after crash %v", i, e.RestartAt, e.At)
			}
		case Loss, Degrade, Corrupt:
			if e.Rate < 0 || e.Rate > 1 {
				return fmt.Errorf("fault: event %d: rate %v outside [0,1]", i, e.Rate)
			}
			fallthrough
		case Blackout, Partition:
			if e.Until <= e.From {
				return fmt.Errorf("fault: event %d: empty window [%v,%v)", i, e.From, e.Until)
			}
			if e.Kind == Partition && (len(e.A) == 0 || len(e.B) == 0) {
				return fmt.Errorf("fault: event %d: partition with an empty set", i)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// End returns the virtual time at which the last scheduled fault
// activity ends — useful for sizing a chaos run.
func (s *Schedule) End() sim.Time {
	var end sim.Time
	for _, e := range s.Events {
		for _, t := range []sim.Time{e.Until, e.At, e.RestartAt} {
			if t > end {
				end = t
			}
		}
	}
	return end
}

// CrashTarget is anything the injector can crash and restart — in
// practice a core.Server, whose Crash loses request-region state and
// errors its queue pairs, and whose Restart re-registers fresh ones.
type CrashTarget interface {
	Crash()
	Restart()
}

// FlushCrasher is a crash target that can also die mid-group-commit
// (core.Server with durability on). A FlushCrash event dispatches
// CrashMidFlush when the target implements it and falls back to a
// plain Crash otherwise.
type FlushCrasher interface {
	CrashMidFlush()
}

// Injector binds a schedule to one fabric: it owns the packet-fate hook
// and schedules crash/restart events on the engine.
type Injector struct {
	eng   *sim.Engine
	net   *wire.Network
	sched *Schedule
	rnd   *sim.Rand

	targets map[wire.NodeID]CrashTarget
	armed   bool

	// Injection counts by outcome, tracked under fault.injected.* once
	// SetTelemetry runs, and the nemesis event counter (nil-safe).
	drops, corrupts   *telemetry.Counter
	crashes, restarts *telemetry.Counter
	injNemesis        *telemetry.Counter
}

// NewInjector attaches a validated schedule to the network. The packet
// hook is installed immediately; crash events are scheduled lazily by
// Arm so targets can be registered first.
func NewInjector(net *wire.Network, sched *Schedule, seed int64) (*Injector, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		eng:     net.Engine(),
		net:     net,
		sched:   sched,
		rnd:     sim.NewRand(seed),
		targets: make(map[wire.NodeID]CrashTarget),
	}
	telemetry.NewCells(nil, &in.drops, &in.corrupts, &in.crashes, &in.restarts)
	net.SetFaultHook(in.fate)
	return in, nil
}

// SetTelemetry tracks the injection counts under fault.injected.* in
// sink s, once per registry.
func (in *Injector) SetTelemetry(s *telemetry.Sink) {
	nemesis := s.Counter("nemesis.events")
	if nemesis == in.injNemesis {
		return
	}
	in.injNemesis = nemesis
	s.Counter("fault.injected.drop").Track(in.drops)
	s.Counter("fault.injected.corrupt").Track(in.corrupts)
	s.Counter("fault.injected.crash").Track(in.crashes)
	s.Counter("fault.injected.restart").Track(in.restarts)
}

// SetCrashTarget registers the process to kill when a Crash event names
// node. Call before Arm.
func (in *Injector) SetCrashTarget(node wire.NodeID, t CrashTarget) {
	in.targets[node] = t
}

// Arm schedules every Crash event on the engine. Safe to call once;
// subsequent calls are no-ops. Crash events with no registered target
// are counted and skipped.
func (in *Injector) Arm() {
	if in.armed {
		return
	}
	in.armed = true
	for _, e := range in.sched.Events {
		if e.Nemesis {
			in.injNemesis.Inc()
		}
	}
	// Sort crash instants for deterministic scheduling order regardless
	// of script order.
	events := make([]Event, 0, len(in.sched.Events))
	for _, e := range in.sched.Events {
		if e.Kind == Crash || e.Kind == FlushCrash {
			events = append(events, e)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, e := range events {
		e := e
		in.eng.At(e.At, func() {
			t, ok := in.targets[e.Node]
			if !ok {
				return // no process registered on that node
			}
			if fc, ok := t.(FlushCrasher); ok && e.Kind == FlushCrash {
				fc.CrashMidFlush()
			} else {
				t.Crash()
			}
			in.crashes.Inc()
		})
		if e.RestartAt > e.At {
			in.eng.At(e.RestartAt, func() {
				t, ok := in.targets[e.Node]
				if !ok {
					return
				}
				t.Restart()
				in.restarts.Inc()
			})
		}
	}
}

// Drops, Corrupts, Crashes and Restarts report injected-fault counts.
func (in *Injector) Drops() uint64    { return in.drops.Value() }
func (in *Injector) Corrupts() uint64 { return in.corrupts.Value() }
func (in *Injector) Crashes() uint64  { return in.crashes.Value() }
func (in *Injector) Restarts() uint64 { return in.restarts.Value() }

// linkMatches reports whether event e's link selector covers a packet
// src->dst.
func linkMatches(e Event, src, dst wire.NodeID) bool {
	if e.Src == src && e.Dst == dst {
		return true
	}
	return e.Both && e.Src == dst && e.Dst == src
}

// contains reports whether set holds id.
func contains(set []wire.NodeID, id wire.NodeID) bool {
	for _, n := range set {
		if n == id {
			return true
		}
	}
	return false
}

// fate is the wire.FaultHook: it folds every active window event into
// one verdict. Hard drops (blackout, partition) dominate; then each
// active degradation rolls independently; then corruption. Events are
// consulted in schedule order so runs are deterministic.
func (in *Injector) fate(src, dst wire.NodeID, now sim.Time) wire.Fate {
	corrupt := false
	for _, e := range in.sched.Events {
		if e.Kind == Crash || e.Kind == FlushCrash || now < e.From || now >= e.Until {
			continue
		}
		switch e.Kind {
		case Blackout:
			if linkMatches(e, src, dst) {
				in.drops.Inc()
				return wire.FateDrop
			}
		case Partition:
			aToB := contains(e.A, src) && contains(e.B, dst)
			bToA := contains(e.B, src) && contains(e.A, dst)
			if aToB || (bToA && !e.Asym) {
				in.drops.Inc()
				return wire.FateDrop
			}
		case Loss:
			if in.rnd.Float64() < e.Rate {
				in.drops.Inc()
				return wire.FateDrop
			}
		case Degrade:
			if linkMatches(e, src, dst) && in.rnd.Float64() < e.Rate {
				in.drops.Inc()
				return wire.FateDrop
			}
		case Corrupt:
			if linkMatches(e, src, dst) && in.rnd.Float64() < e.Rate {
				corrupt = true
			}
		}
	}
	if corrupt {
		in.corrupts.Inc()
		return wire.FateCorrupt
	}
	return wire.FateDeliver
}
