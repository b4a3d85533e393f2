// Package stale is herdlint's stale-allow audit fixture: one allow
// that suppresses a real finding, one that suppresses nothing and one
// that names no analyzer.
package stale

//herd:hotpath
func Grow(n int) []int {
	return make([]int, n) //lint:allow hotalloc — the used allow: not stale
}

// Sum reads no clock, so its simtime allow is stale.
func Sum(a, b int) int {
	return a + b //lint:allow simtime — stale
}

//lint:allow nosuch — no analyzer has this name
var Zero = 0
