package experiments

import (
	"strings"
	"testing"

	"herdkv/internal/cluster"
)

// Golden tests pin the deterministic, simulation-free targets exactly:
// any drift in Table 1, Figure 1 or Figure 8 is a semantic change and
// must be deliberate.

func TestGoldenTable1(t *testing.T) {
	want := `== table1: Operations supported by each connection type ==
  verb       RC   UC   UD
  ---------  ---  ---  ---
  SEND/RECV  yes  yes  yes
  WRITE      yes  yes  no
  READ       yes  no   no
  note: UC does not support READs, and UD does not support RDMA at all

`
	if tbl, _ := Table1Verbs(cluster.Apt()); tbl.String() != want {
		t.Fatalf("table1 drifted:\n%q\nwant\n%q", tbl.String(), want)
	}
}

func TestGoldenFig8(t *testing.T) {
	tbl, _ := Fig8Layout(cluster.Apt())
	got := tbl.String()
	for _, want := range []string{
		"6400 (NS*NC*W)",
		"6.2 MB (fits in L3)",
		"slot(s=15, c=199, r=1)  6399",
	} {
		if !containsStr(got, want) {
			t.Fatalf("fig8 missing %q:\n%s", want, got)
		}
	}
}

func TestGoldenFig1(t *testing.T) {
	tbl, _ := Fig1Steps(cluster.Apt())
	got := tbl.String()
	for _, want := range []string{
		"WRITE (RC, signaled)",
		"WRITE (inlined+unrel+unsig)",
		"READ",
		"SEND/RECV",
	} {
		if !containsStr(got, want) {
			t.Fatalf("fig1 missing %q:\n%s", want, got)
		}
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }
