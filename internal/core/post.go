package core

import (
	"errors"
	"fmt"

	"herdkv/internal/verbs"
)

// postLossy consumes the synchronous error from a verbs post on the
// request/response path. A post rejected with ErrQPState — the owning
// process crashed and its queue pairs flushed — behaves exactly like a
// request lost on the wire: the retry timer or the reconnect handshake
// recovers (docs/ROBUSTNESS.md), so the error is absorbed here, in one
// deliberate place. Any other rejection (Table 1 violation, inline
// overflow, bounds) is a protocol bug and must not limp on silently.
//
//herd:hotpath
func postLossy(err error) {
	if err != nil && !errors.Is(err, verbs.ErrQPState) {
		panic(fmt.Sprintf("herd: invalid verbs post: %v", err)) //lint:allow hotalloc — a protocol bug, never the steady state
	}
}
