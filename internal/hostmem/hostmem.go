// Package hostmem models the server host: CPU cores, DRAM access latency,
// and HERD's prefetch pipeline (Section 4.1.1 of the paper).
//
// A HERD server core services a request by polling the request region,
// performing up to two random DRAM lookups (MICA index + log), and calling
// post_send (~150 ns). Random DRAM accesses cost 60-120 ns; the 2-stage
// request pipeline overlaps the prefetch of one request's next access with
// the post_send of another, so a prefetched access completes in roughly an
// L1/L2 hit time. Figure 7 measures exactly this effect.
package hostmem

import "herdkv/internal/sim"

// Params describes CPU and memory timing for one host.
type Params struct {
	// DRAMLo and DRAMHi bound a uniform random DRAM access time
	// (the paper quotes 60-120 ns).
	DRAMLo, DRAMHi sim.Time
	// PrefetchedAccess is the cost of touching a line whose prefetch has
	// already completed (roughly an L2 hit).
	PrefetchedAccess sim.Time
	// PostSend is the CPU cost of the post_send() verbs call
	// (~150 ns per the paper).
	PostSend sim.Time
	// PollCheck is the CPU cost of detecting a new request while polling
	// the request region (the hit case; includes the L3-resident load of
	// the keyhash word and loop overhead).
	PollCheck sim.Time
	// RecvRepost is the CPU cost of posting a RECV, paid per request by
	// SEND/RECV-based servers such as Pilaf's PUT path (Figure 13).
	RecvRepost sim.Time
}

// DefaultParams returns timing for a Xeon E5-2450-class host, calibrated
// to the paper's quoted numbers: 60-120 ns DRAM, ~150 ns post_send, and a
// single HERD core delivering ~6.3 Mops (Section 5.7).
func DefaultParams() Params {
	return Params{
		DRAMLo:           sim.NS(60),
		DRAMHi:           sim.NS(120),
		PrefetchedAccess: sim.NS(5),
		PostSend:         sim.NS(120),
		PollCheck:        sim.NS(25),
		RecvRepost:       sim.NS(110),
	}
}

// Host is a simulated server host: a set of CPU cores sharing a DRAM
// timing model. Each core is an independent FIFO resource.
type Host struct {
	eng   *sim.Engine
	p     Params
	cores []*sim.Server
	rnd   *sim.Rand
}

// NewHost returns a host with the given core count.
func NewHost(eng *sim.Engine, p Params, cores int, seed int64) *Host {
	if cores < 1 {
		panic("hostmem: NewHost requires cores >= 1")
	}
	h := &Host{eng: eng, p: p, rnd: sim.NewRand(seed)}
	h.cores = make([]*sim.Server, cores)
	for i := range h.cores {
		h.cores[i] = sim.NewServer(eng)
	}
	return h
}

// Params returns the host's timing parameters.
func (h *Host) Params() Params { return h.p }

// Cores returns the number of CPU cores.
func (h *Host) Cores() int { return len(h.cores) }

// Core returns core i's service resource.
func (h *Host) Core(i int) *sim.Server { return h.cores[i] }

// DRAMAccess samples one random DRAM access time.
func (h *Host) DRAMAccess() sim.Time {
	return h.rnd.DurationBetween(h.p.DRAMLo, h.p.DRAMHi)
}

// RequestService returns the CPU time one core spends on a request that
// performs nAccesses random memory lookups before replying.
//
// Without prefetching the core stalls on every access. With the paper's
// pipeline, an access whose prefetch was overlapped with earlier work
// costs only PrefetchedAccess — but masking is only complete if the
// pipeline advance interval covers the DRAM latency; otherwise the
// residual stall is charged.
func (h *Host) RequestService(nAccesses int, prefetch bool) sim.Time {
	base := h.p.PollCheck + h.p.PostSend
	if !prefetch {
		t := base
		for i := 0; i < nAccesses; i++ {
			t += h.DRAMAccess()
		}
		return t
	}
	t := base + sim.Time(nAccesses)*h.p.PrefetchedAccess
	// The pipeline advances once per request completion, and an access's
	// prefetch is issued one full advance before its use. Masking is
	// complete when the per-request service time covers the DRAM
	// latency; otherwise the pipeline can only advance as fast as
	// prefetches land.
	if nAccesses > 0 {
		if lat := h.DRAMAccess(); t < lat {
			t = lat
		}
	}
	return t
}
