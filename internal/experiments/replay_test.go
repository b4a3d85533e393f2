package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"herdkv/internal/cluster"
)

// replayFirst keeps each target's first TestReplayStable output for the
// lifetime of the test process. `go test -count=2` re-enters the test in
// the same process, so the second entry compares a complete fresh
// execution against the first one's bytes — catching leaked global state
// (an ambient rand, a shared cache, init-order dependence) that a
// within-run double execution can never see. CI runs this under -race
// -count=2 (see .github/workflows/ci.yml and docs/ROBUSTNESS.md).
var replayFirst sync.Map

// replayDigests pins the SHA-256 of each TestReplayStable target's
// table+report bytes at the shortened windows. A refactor of the
// drivers or the layers beneath them must leave every digest as it is;
// a change that moves a modeled number updates its digest on purpose.
var replayDigests = map[string]string{
	"chaos":         "b31ec8d7985a439d89c013ef9224ba14c70242c6503d0ec6c7f8baee79529eed",
	"fleet-bench":   "e203f767b4402bd7461cd7943335d0d643ce7b8b0bcaf4f0f0bdc0799c447bad",
	"fleet-chaos":   "183c0deb45b4d448aca6745f3d7a393566e116fb0338bd0c01959b6e6fdefa2a",
	"overload":      "2acb8142174b76f553b012921b0f8ccbe5f016fa3182262a67550ff56c7a234d",
	"clients-sweep": "063636406816aa0e01c37576c41db15ab5e1bc45c2085591a8468e9b46f97a8f",
	"durability":    "9c9f76832b9698e597eb3dfc63804ea457f83b52daee8005d8a119180b1870b7",
	"hotkey":        "f1dd69ad7010d03514f4208509d1f2ceff008c1a7b81033addf8a03236de1de6",
	"consistency":   "bd794e1373e8d2ed154eb11ce66c6645d6ac7cef5d07779b7feb7ddcb9a2da86",

	// The verb-level targets: their closed loops repost from their own
	// completion handlers.
	"fig3":              "cabf09aad1ae4da8d8fa83efb4711bb14e460a3ffbd829aaca009035c6affddc",
	"fig4":              "493bfabb63b09dcd8c391e03670c4b917260548719fde074ad34aefb1da937cd",
	"fig5":              "6cbc090b2b03e9912a2be3603edbe5b5fe012a538676e5033c221bbcd8bdbca8",
	"fig6":              "82bc44f83d227acee8d0f22d5061bfa3f4d7bf1efacfb4a387395d354479eb2d",
	"fig7":              "e6fb135f8a5242379ebcaa74755b33161ad99421aca76648859098759c01b21b",
	"ablation-doorbell": "32c3cc0b633b6afb1a415a20910fcd7cbde7c2963fd55eed0f28419cc28525a1",
	"symmetric":         "3c5f4f8a16c9cc05b26b9704719ac5d758772e0791497674f531d338c4bc0b5c",
	"classical":         "de04e8929ab874f8c258ad69abbacd2f9084ebe714d0c0204d4de3dbf367021c",
}

// TestReplayStable pins determinism for every target in replayDigests:
// two in-process runs, and the first run of any earlier -count
// iteration, must produce the same table and report bytes, and those
// bytes must match replayDigests.
func TestReplayStable(t *testing.T) {
	defer short(t)()
	for _, target := range Targets {
		if _, pinned := replayDigests[target.Name]; !pinned {
			continue
		}
		target := target
		t.Run(target.Name, func(t *testing.T) {
			run := func() string {
				tbl, rep := target.Run(cluster.Apt())
				var sb strings.Builder
				sb.WriteString(tbl.String())
				if rep != nil {
					if err := rep.WriteJSON(&sb); err != nil {
						t.Fatal(err)
					}
				}
				return sb.String()
			}
			out := run()
			if again := run(); again != out {
				t.Fatalf("same-process rerun diverged:\n--- first ---\n%s--- rerun ---\n%s", out, again)
			}
			if first, loaded := replayFirst.LoadOrStore(target.Name, out); loaded && first != out {
				t.Fatalf("run diverged from the first in-process run (leaked global state?):\n--- first ---\n%s--- this run ---\n%s",
					first, out)
			}
			sum := sha256.Sum256([]byte(out))
			if got, want := hex.EncodeToString(sum[:]), replayDigests[target.Name]; got != want {
				t.Fatalf("output digest %s, want %s:\n%s", got, want, out)
			}
		})
	}
}

// metric returns the named arm's metric from rep, failing t when the
// arm or metric is missing.
func metric(t *testing.T, rep *Report, arm, name string) float64 {
	t.Helper()
	m, ok := rep.Arms[arm][name]
	if !ok {
		t.Fatalf("%s report has no %q metric in arm %q", rep.Name, name, arm)
	}
	return m.Value
}
