package fault

import (
	"os"
	"testing"

	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

func TestParseScheduleFull(t *testing.T) {
	s, err := ParseSchedule(`
		# chaos: flaky fabric, then an outage
		loss      from=0 until=30ms rate=0.05
		blackout  link=1>0 from=5ms until=6ms both
		degrade   link=2>0 from=0 until=10ms rate=0.2
		corrupt   link=1>0 from=2ms until=3ms rate=1
		partition a=1,2 b=0 from=4ms until=5ms asym
		crash     node=0 at=10ms restart=20ms
		flushcrash node=1 at=11ms restart=21ms
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 7 {
		t.Fatalf("parsed %d events, want 7", len(s.Events))
	}
	e := s.Events[1]
	if e.Kind != Blackout || e.Src != 1 || e.Dst != 0 || !e.Both ||
		e.From != 5*sim.Millisecond || e.Until != 6*sim.Millisecond {
		t.Fatalf("blackout parsed as %+v", e)
	}
	p := s.Events[4]
	if p.Kind != Partition || !p.Asym ||
		len(p.A) != 2 || p.A[0] != 1 || p.A[1] != 2 ||
		len(p.B) != 1 || p.B[0] != 0 {
		t.Fatalf("partition parsed as %+v", p)
	}
	c := s.Events[5]
	if c.Kind != Crash || c.Node != 0 || c.At != 10*sim.Millisecond || c.RestartAt != 20*sim.Millisecond {
		t.Fatalf("crash parsed as %+v", c)
	}
	fc := s.Events[6]
	if fc.Kind != FlushCrash || fc.Node != 1 || fc.At != 11*sim.Millisecond || fc.RestartAt != 21*sim.Millisecond {
		t.Fatalf("flushcrash parsed as %+v", fc)
	}
}

func TestParseDurUnits(t *testing.T) {
	cases := map[string]sim.Time{
		"0":     0,
		"5ns":   5 * sim.Nanosecond,
		"2.5us": 2500 * sim.Nanosecond,
		"3ms":   3 * sim.Millisecond,
		"1s":    sim.Second,
	}
	for in, want := range cases {
		got, err := parseDur(in)
		if err != nil || got != want {
			t.Errorf("parseDur(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"5", "-1ms", "ms", "1m", "abc", ""} {
		if _, err := parseDur(in); err == nil {
			t.Errorf("parseDur(%q) accepted", in)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	cases := []string{
		"explode from=0 until=1ms",              // unknown keyword
		"loss from=0 until=1ms",                 // missing rate
		"loss from=0 until=1ms rate=2",          // rate outside [0,1]
		"loss from=0 until=1ms rate=0.1 bogus",  // unknown flag
		"loss from=0 until=1ms rate=0.1 x=1",    // unknown field
		"loss from=0 from=1ms until=2ms rate=1", // duplicate field
		"blackout link=1 from=0 until=1ms",      // malformed link
		"blackout link=1>1 from=0 until=1ms",    // self-link
		"blackout link=1>0 from=1ms until=1ms",  // empty window
		"partition a=1 from=0 until=1ms",        // missing b
		"partition a=1 b= from=0 until=1ms",     // empty node set
		"crash node=0 at=10ms restart=5ms",      // restart before crash
		"crash node=-1 at=10ms",                 // negative node
		"crash at=10ms",                         // missing node
		"flushcrash node=0 at=10ms restart=5ms", // restart before flushcrash
		"flushcrash node=0",                     // missing at
	}
	for _, script := range cases {
		if _, err := ParseSchedule(script); err == nil {
			t.Errorf("script %q accepted", script)
		}
	}
}

func TestParseScheduleCommentsAndBlanks(t *testing.T) {
	s, err := ParseSchedule("\n# only a comment\n\n  crash node=0 at=1ms # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != Crash {
		t.Fatalf("parsed %+v", s.Events)
	}
}

// FuzzParseSchedule checks the parser never panics and that whatever it
// accepts passes validation (ParseSchedule validates before returning —
// an accepted-but-invalid schedule would panic cluster.New).
func FuzzParseSchedule(f *testing.F) {
	f.Add("loss from=0 until=30ms rate=0.05")
	f.Add("blackout link=1>0 from=5ms until=6ms both")
	f.Add("degrade link=2>0 from=0 until=10ms rate=0.2")
	f.Add("corrupt link=1>0 from=2ms until=3ms rate=1")
	f.Add("partition a=1,2 b=0 from=4ms until=5ms asym")
	f.Add("crash node=0 at=10ms restart=20ms")
	f.Add("flushcrash node=0 at=10ms restart=20ms")
	f.Add("# comment\n\ncrash node=0 at=1us")
	f.Add("loss from==0 until=1ms rate=0..5")
	f.Add("nemesis seed=7 until=8ms nodes=4")
	f.Add("nemesis seed=-1 until=8ms nodes=4 peers=10 crashes=2 flushcrashes=1 blackouts=3 partitions=1 mindown=100us maxdown=2ms")
	f.Add("nemesis seed=1 until=0 nodes=0 crashes=9")
	f.Add("nemesis seed=x until=8ms nodes=4")
	f.Add("crash node=0 at=1ms restart=2ms\nnemesis seed=1 until=4ms nodes=2 blackouts=1")
	f.Fuzz(func(t *testing.T, script string) {
		s, err := ParseSchedule(script)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted schedule fails validation: %v\nscript: %q", err, script)
		}
		// An accepted schedule must also bind to a fabric without error.
		eng := sim.New()
		net := wire.NewNetwork(eng, wire.InfiniBand56())
		net.AddNode(wire.NodeID(0))
		if _, err := NewInjector(net, s, 1); err != nil {
			t.Fatalf("accepted schedule rejected by NewInjector: %v", err)
		}
	})
}

// TestEveryKeywordScript keeps the committed every-keyword script
// complete: it parses, and holds a hand-written event of every kind
// plus nemesis-generated ones.
func TestEveryKeywordScript(t *testing.T) {
	script, err := os.ReadFile("testdata/every-keyword.faults")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSchedule(string(script))
	if err != nil {
		t.Fatal(err)
	}
	scripted := map[Kind]bool{}
	generated := 0
	for _, e := range s.Events {
		if e.Nemesis {
			generated++
		} else {
			scripted[e.Kind] = true
		}
	}
	for _, k := range []Kind{Loss, Blackout, Degrade, Corrupt, Partition, Crash, FlushCrash} {
		if !scripted[k] {
			t.Errorf("no scripted %v event", k)
		}
	}
	if generated == 0 {
		t.Error("the nemesis line generated no events")
	}
}
