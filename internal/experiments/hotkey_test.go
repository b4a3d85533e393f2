package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// TestHotkeyGate is the acceptance bar for the near-cache tier: on the
// paper's skewed workload the cached arm must beat the uncached fleet
// on goodput while the origin shards serve materially fewer GETs.
func TestHotkeyGate(t *testing.T) {
	defer short(t)()
	tbl, rep := Hotkey(cluster.Apt())
	if metric(t, rep, "uncached", "goodput_mops") <= 0 || metric(t, rep, "cached", "goodput_mops") <= 0 {
		t.Fatalf("zero throughput somewhere:\n%s", tbl)
	}
	if s := metric(t, rep, "cached", "cache_speedup"); s <= 1 {
		t.Fatalf("cached arm %.2fx uncached, want > 1x:\n%s", s, tbl)
	}
	if c, u := metric(t, rep, "cached", "origin_gets"), metric(t, rep, "uncached", "origin_gets"); c >= u {
		t.Fatalf("origin GETs did not drop: cached %.0f >= uncached %.0f", c, u)
	}
	if h := metric(t, rep, "cached", "cache_hit_rate"); h <= 0.2 {
		t.Fatalf("cache hit rate %.2f implausibly low for Zipf(.99)", h)
	}
	if metric(t, rep, "cached", "hot_widened") == 0 {
		t.Fatalf("no hot reads widened off-primary:\n%s", tbl)
	}
}
