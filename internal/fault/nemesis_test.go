package fault

import (
	"reflect"
	"testing"

	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

func TestNemesisGenerateDeterministic(t *testing.T) {
	cfg := NemesisConfig{
		Seed: 7, Until: 8 * sim.Millisecond, Nodes: 4, Peers: 10,
		Crashes: 2, FlushCrashes: 1, Blackouts: 3, Partitions: 1,
	}
	a, b := cfg.Generate(), cfg.Generate()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different schedules")
	}
	if len(a.Events) != 2+1+3+1 {
		t.Fatalf("generated %d events, want 7", len(a.Events))
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule fails validation: %v", err)
	}
	cfg2 := cfg
	cfg2.Seed = 8
	if reflect.DeepEqual(a, cfg2.Generate()) {
		t.Fatal("different seeds generated identical schedules")
	}
	for _, e := range a.Events {
		if !e.Nemesis {
			t.Fatalf("generated event not tagged Nemesis: %+v", e)
		}
	}
}

func TestNemesisCrashNodesDistinct(t *testing.T) {
	cfg := NemesisConfig{Seed: 3, Until: 4 * sim.Millisecond, Nodes: 3, Crashes: 5, FlushCrashes: 5}
	s := cfg.Generate()
	seen := map[int]bool{}
	n := 0
	for _, e := range s.Events {
		if e.Kind != Crash && e.Kind != FlushCrash {
			continue
		}
		n++
		if seen[int(e.Node)] {
			t.Fatalf("node %d crashed twice: overlapping downtime windows", e.Node)
		}
		seen[int(e.Node)] = true
		if e.RestartAt <= e.At {
			t.Fatalf("event %+v never restarts", e)
		}
	}
	if n != 3 {
		t.Fatalf("crash budget not clamped to Nodes: %d events", n)
	}
}

func TestParseNemesisLine(t *testing.T) {
	s, err := ParseSchedule("nemesis seed=7 until=8ms nodes=4 peers=10 crashes=1 flushcrashes=1 blackouts=2 partitions=1 mindown=150us maxdown=400us")
	if err != nil {
		t.Fatal(err)
	}
	want := NemesisConfig{
		Seed: 7, Until: 8 * sim.Millisecond, Nodes: 4, Peers: 10,
		Crashes: 1, FlushCrashes: 1, Blackouts: 2, Partitions: 1,
		MinDown: 150 * sim.Microsecond, MaxDown: 400 * sim.Microsecond,
	}.Generate()
	if !reflect.DeepEqual(s.Events, want.Events) {
		t.Fatalf("parsed nemesis differs from generated:\n%+v\n%+v", s.Events, want.Events)
	}

	// A nemesis line composes with plain events.
	s, err = ParseSchedule("crash node=0 at=1ms restart=2ms\nnemesis seed=1 until=4ms nodes=2 blackouts=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2 || s.Events[0].Kind != Crash || s.Events[0].Nemesis {
		t.Fatalf("composition parsed as %+v", s.Events)
	}

	for _, bad := range []string{
		"nemesis until=8ms nodes=4",        // missing seed
		"nemesis seed=1 nodes=4",           // missing until
		"nemesis seed=1 until=8ms",         // missing nodes
		"nemesis seed=1 until=8ms nodes=x", // bad count
		"nemesis seed=1 until=8ms nodes=4 bogus=1",
		"nemesis seed=1 until=8ms nodes=4 asym",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestMinimizeKeepsFailure(t *testing.T) {
	cfg := NemesisConfig{Seed: 11, Until: 8 * sim.Millisecond, Nodes: 4, Peers: 8,
		Crashes: 2, Blackouts: 3, Partitions: 2}
	s := cfg.Generate()
	var crashNode wire.NodeID
	for _, e := range s.Events {
		if e.Kind == Crash {
			crashNode = e.Node
			break
		}
	}
	// The "failure" needs one specific crash plus at least one blackout.
	fails := func(c *Schedule) bool {
		haveCrash, blackouts := false, 0
		for _, e := range c.Events {
			if e.Kind == Crash && e.Node == crashNode {
				haveCrash = true
			}
			if e.Kind == Blackout {
				blackouts++
			}
		}
		return haveCrash && blackouts >= 1
	}
	if !fails(s) {
		t.Fatal("generated schedule missing the crash/blackout premise")
	}
	min := Minimize(s, fails)
	if !fails(min) {
		t.Fatal("minimized schedule no longer fails")
	}
	if len(min.Events) != 2 {
		t.Fatalf("minimized to %d events, want the essential 2", len(min.Events))
	}
	// Locally minimal: removing any remaining event breaks the failure.
	for i := range min.Events {
		cand := &Schedule{Events: append(append([]Event(nil), min.Events[:i]...), min.Events[i+1:]...)}
		if fails(cand) {
			t.Fatalf("event %d still removable", i)
		}
	}
}
