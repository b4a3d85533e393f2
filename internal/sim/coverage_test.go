package sim

import "testing"

func TestTimeNanoseconds(t *testing.T) {
	if (1500 * Picosecond).Nanoseconds() != 1.5 {
		t.Fatalf("1500ps = %v ns", (1500 * Picosecond).Nanoseconds())
	}
}

func TestRandHelpers(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 100; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	p := r.Perm(8)
	seen := make([]bool, 8)
	for _, v := range p {
		if v < 0 || v >= 8 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}
