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
	"chaos":         "26e8f7fb395d735d994f5db3707f31c294fded6b179bceeba6df510c2fe53936",
	"fleet-bench":   "729b65cf168638b2dfb52c9b26ba763ed661f8953c46b486a5e9a96597edaa78",
	"fleet-chaos":   "0028dd069a9cf67f2133bf05fa92dd6be4a927df00ca6c203d4496b0ed46849d",
	"overload":      "03920456d751104ddc0e2c59934813805ee1988ed3303c4f7c1618c17d106f41",
	"clients-sweep": "2717f1ef5ea5300f68cd4ba31db80ea37f232fcbc97cf9ef501fcf47c639103a",
	"durability":    "6b716a7fe1826a583c070f0009b4b0038de9303dc3815b2df210e69111074bba",
	"hotkey":        "1d2a411929210d6eb749e14692aedf725062a7f183fbc16c3493cb58bfb644bd",
	"consistency":   "a674c00336f927c22ef17c85ad9cf56eae41bd81080dc51b03a18f52ff539059",
}

// TestReplayStable pins determinism for every registered target that
// writes a report, plus the chaos scenarios: two in-process runs, and
// the first run of any earlier -count iteration, must produce the same
// table and report bytes, and those bytes must match replayDigests.
func TestReplayStable(t *testing.T) {
	defer short(t)()
	for _, target := range Targets {
		if target.Bench == nil && target.Name != "chaos" && target.Name != "fleet-chaos" {
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
