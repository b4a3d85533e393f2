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
	"fleet-bench":   "4212990e60ac1cb7e3934e34cafc9ac5a3e4d520565cda75d5f3a9794b53e6af",
	"fleet-chaos":   "36aea2e38e1c2ca1a7409f5852c2b430afd405515602def91771cc6e389cf062",
	"overload":      "2acb8142174b76f553b012921b0f8ccbe5f016fa3182262a67550ff56c7a234d",
	"clients-sweep": "063636406816aa0e01c37576c41db15ab5e1bc45c2085591a8468e9b46f97a8f",
	"durability":    "87e390bbbbf238ca8c81f14f966ff14c30de23a524c6326cfcc34c5e5bf88bbd",
	"hotkey":        "3b49c344af62f15716b61ba3c8a4ff314d41898a6ef987d2c31fb00ae784ab35",
	"consistency":   "f36beac82f9cf2b9fa2ffe9d00e58826d40008b510feb0b7f7bbb9601bf448c6",

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

	// The compared designs: Fig 9's four systems on both clusters, and
	// §5.5's request paths (UC, DC and SEND) at 50–500 clients.
	"fig9":          "bc558fe510367844e442143ad1b80a39187f3c0a0685b9c8756ffc00b4d30832",
	"ablation-arch": "08e27838ab305b2330dbe6c4b8c5f2da94cf6eebd41314575101386b8177a93c",
}

// TestReplayStable pins determinism for every target in replayDigests:
// two in-process runs, and the first run of any earlier -count
// iteration, must produce the same table and report bytes, and those
// bytes must match replayDigests. The targets run as parallel
// subtests: each builds its own clusters and only reads the package
// windows, which the cleanup restores once every subtest is done.
func TestReplayStable(t *testing.T) {
	t.Cleanup(short(t))
	for _, target := range Targets {
		if _, pinned := replayDigests[target.Name]; !pinned {
			continue
		}
		target := target
		t.Run(target.Name, func(t *testing.T) {
			t.Parallel()
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
