package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
)

// Fig8Layout renders Figure 8 — the request region layout — as a table:
// the region's dimensions under the paper's configuration and the slot
// arithmetic for a few representative (process, client, seq) triples.
func Fig8Layout(_ cluster.Spec) (*Table, *Report) {
	cfg := core.Config{NS: 16, MaxClients: 200, Window: 2}
	t := &Table{
		ID:      "fig8",
		Title:   "Request region layout (NS=16, NC=200, W=2)",
		Columns: []string{"property", "value"},
	}
	t.AddRow("slot size", fmt.Sprintf("%d B (max key-value item)", core.SlotSize))
	t.AddRow("slots", fmt.Sprintf("%d (NS*NC*W)", cfg.NS*cfg.MaxClients*cfg.Window))
	t.AddRow("region size", fmt.Sprintf("%.1f MB (fits in L3)", float64(cfg.RegionSize())/(1<<20)))
	t.AddRow("per-process chunk", fmt.Sprintf("%d slots (NC*W)", cfg.MaxClients*cfg.Window))
	t.AddRow("per-client chunk", fmt.Sprintf("%d slots (W)", cfg.Window))

	for _, triple := range [][3]int{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0}, {15, 199, 1}} {
		s, c, r := triple[0], triple[1], triple[2]
		t.AddRow(
			fmt.Sprintf("slot(s=%d, c=%d, r=%d)", s, c, r),
			fmt.Sprintf("%d  (s*(W*NC) + c*W + r mod W)", cfg.SlotIndex(s, c, r)),
		)
	}
	t.AddNote("a request's keyhash occupies the rightmost 16 B of its slot; LEN precedes it, then the 2 B request tag; the value sits left")
	t.AddNote("polling trigger: a nonzero keyhash, valid because the RNIC's DMA writes land left to right")
	return t, nil
}
