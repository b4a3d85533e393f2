package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// TestFiguresReadInlineMax runs the verb-level figures on a NIC whose
// inline limit is 128 B. PostSend rejects an inline payload above the
// limit and the figures panic on a rejected post, so a clean run means
// nothing larger was posted inline. Fig 2's inline-only series stop at
// the limit.
func TestFiguresReadInlineMax(t *testing.T) {
	defer short(t)()
	spec := cluster.Apt()
	spec.NIC.InlineMax = 128
	for _, target := range []string{"fig2", "fig4", "fig5"} {
		tg, _ := FindTarget(target)
		t.Run(target, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked at InlineMax 128: %v", r)
				}
			}()
			_, rep := tg.Run(spec)
			if target != "fig2" {
				return
			}
			for arm, want := range map[string]bool{"size=128": true, "size=256": false} {
				for _, metric := range []string{"wr_inline_us", "echo_us"} {
					if _, got := rep.Arms[arm][metric]; got != want {
						t.Errorf("fig2 %s reports %s: %v, want %v", arm, metric, got, want)
					}
				}
			}
		})
	}
}
