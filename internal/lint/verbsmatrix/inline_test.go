package verbsmatrix

import (
	"testing"

	"herdkv/internal/nic"
)

// TestMaxInlineMatchesModel pins the payload check's limit to the NIC
// model both cluster presets run on.
func TestMaxInlineMatchesModel(t *testing.T) {
	if want := nic.ConnectX3().InlineMax; maxInline != want {
		t.Errorf("maxInline = %d, want nic.ConnectX3().InlineMax = %d", maxInline, want)
	}
}
