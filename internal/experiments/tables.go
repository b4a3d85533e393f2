package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// Table1Verbs reproduces Table 1: operations supported by each transport
// type, as enforced by the verbs layer.
func Table1Verbs(_ cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "table1",
		Title:   "Operations supported by each connection type",
		Columns: []string{"verb", "RC", "UC", "UD"},
	}
	mark := func(tr wire.Transport, v verbs.Verb) string {
		if verbs.Supports(tr, v) {
			return "yes"
		}
		return "no"
	}
	rows := []struct {
		name string
		v    verbs.Verb
	}{
		{"SEND/RECV", verbs.SEND},
		{"WRITE", verbs.WRITE},
		{"READ", verbs.READ},
	}
	for _, r := range rows {
		t.AddRow(r.name, mark(wire.RC, r.v), mark(wire.UC, r.v), mark(wire.UD, r.v))
	}
	t.AddNote("UC does not support READs, and UD does not support RDMA at all")
	return t, nil
}

// Table2Clusters reproduces Table 2: the evaluation clusters.
func Table2Clusters(_ cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "table2",
		Title:   "Cluster configuration",
		Columns: []string{"name", "nodes", "hardware"},
	}
	for _, s := range cluster.Table2() {
		t.AddRow(s.Name, fmt.Sprintf("%d", s.MaxNodes), s.CPUDesc+". "+s.NICDesc)
	}
	return t, nil
}
