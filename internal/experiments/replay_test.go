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
	"chaos":         "2bbb82a00da1d01e6b89f561ac0591dcd0c9c2bfb1de3f497e71a0dd1aeeea3c",
	"fleet-bench":   "729b65cf168638b2dfb52c9b26ba763ed661f8953c46b486a5e9a96597edaa78",
	"fleet-chaos":   "b2a76d72c8dc9211867a233ebfc5d35d98ec023c7a98a000b6e353da64d3a828",
	"overload":      "03920456d751104ddc0e2c59934813805ee1988ed3303c4f7c1618c17d106f41",
	"clients-sweep": "2717f1ef5ea5300f68cd4ba31db80ea37f232fcbc97cf9ef501fcf47c639103a",
	"durability":    "6b716a7fe1826a583c070f0009b4b0038de9303dc3815b2df210e69111074bba",
	"hotkey":        "1d2a411929210d6eb749e14692aedf725062a7f183fbc16c3493cb58bfb644bd",
	"consistency":   "a674c00336f927c22ef17c85ad9cf56eae41bd81080dc51b03a18f52ff539059",

	// The verb-level targets: their closed loops repost from their own
	// completion handlers.
	"fig3":              "409ae6d9abc08ff2a93a7a50a89b1cd599bf01c361c06ad8f6c31d813d3359d4",
	"fig4":              "493bfabb63b09dcd8c391e03670c4b917260548719fde074ad34aefb1da937cd",
	"fig5":              "7e8e92b84ce537a0ab18787cd7953ac4dcfb2fa503c684a557d5e24fdf9e4544",
	"fig6":              "82bc44f83d227acee8d0f22d5061bfa3f4d7bf1efacfb4a387395d354479eb2d",
	"fig7":              "e6fb135f8a5242379ebcaa74755b33161ad99421aca76648859098759c01b21b",
	"ablation-doorbell": "32c3cc0b633b6afb1a415a20910fcd7cbde7c2963fd55eed0f28419cc28525a1",
	"symmetric":         "a585600f4913b0bea2b06a1f08845e314f5881612c3f6cec94538ce1df150305",
	"classical":         "900af7c5bb91a01c351ba839cd0f511cf577422048151f46721c63257a261449",
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
