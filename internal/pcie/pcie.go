// Package pcie models the host PCIe interconnect between CPU/DRAM and the
// RNIC: Programmed IO (PIO) with write-combining, and DMA transfers with
// posted (write) and non-posted (read) transaction semantics.
//
// The paper's verb performance hinges on exactly these mechanisms:
//
//   - Inlined WRITEs/SENDs push the whole WQE through PIO; write-combining
//     flushes in 64 B cachelines, so outbound message rate steps down at
//     64 B payload intervals (Figure 4).
//   - Non-inlined payloads and inbound READs require DMA reads, which are
//     non-posted (the RNIC must hold request state until the completion
//     returns), costing more than the posted DMA writes used by inbound
//     WRITEs — one reason WRITE beats READ (Section 3.2.2).
//   - PCIe 2.0 x8 (Susitna) has roughly half the bandwidth of 3.0 x8
//     (Apt), which is why all systems top out lower on RoCE (Figure 10).
package pcie

import (
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// CachelineBytes is the write-combining flush unit for PIO.
const CachelineBytes = 64

// Params describes one host's PCIe link and engines.
type Params struct {
	// PerDoorbell is the fixed engine occupancy of a doorbell MMIO
	// transaction, paid once per posted verb regardless of inlining.
	// (The ~150 ns CPU cost of post_send itself is charged to the core
	// by package hostmem, not here.)
	PerDoorbell sim.Time
	// PerCacheline is the engine occupancy of flushing one 64 B
	// write-combining buffer to the device; an inlined WQE of n bytes
	// costs ceil(n/64) cachelines. Flushes pipeline, so this bounds
	// PIO *throughput*.
	PerCacheline sim.Time
	// PerCachelineWC is additional occupancy charged for every cacheline
	// beyond the second in a single WQE: large inlined WQEs put pressure
	// on the CPU's limited write-combining buffers, which is why
	// Figure 4's inline curve falls faster than linearly and crosses
	// below the non-inlined (DMA) path around 200 B.
	PerCachelineWC sim.Time
	// PerCachelineLat is the full latency of one write-combined MMIO
	// store as seen by a single WQE (uncached stores do not pipeline
	// within one WQE). The excess over PerCacheline is added to a PIO
	// write's completion latency without occupying the engine — this is
	// why ECHO latency climbs with payload size in Figure 2 while PIO
	// throughput only steps down gently.
	PerCachelineLat sim.Time
	// DMAReadLatency is the round-trip latency of a non-posted DMA read
	// (request TLP out, completion TLPs back).
	DMAReadLatency sim.Time
	// DMAWriteLatency is the one-way latency of a posted DMA write.
	DMAWriteLatency sim.Time
	// BytesPerSec is the effective per-direction data bandwidth.
	BytesPerSec float64
	// TLPHeaderBytes is per-TLP framing overhead added to each
	// MaxPayload-sized chunk.
	TLPHeaderBytes int
	// MaxPayload is the maximum TLP payload (typically 256 B).
	MaxPayload int
}

// Gen3x8 returns parameters for a PCIe 3.0 x8 host (the Apt cluster).
// Calibration: a 1-cacheline WQE costs 26 ns of engine time (~38 M
// doorbells/s, the paper's ">35 Mops for very small outbound WRITEs"),
// a 2-cacheline WQE 38 ns (~26 Mops, HERD's peak response rate).
func Gen3x8() Params {
	return Params{
		PerDoorbell:     sim.NS(14),
		PerCacheline:    sim.NS(12),
		PerCachelineWC:  sim.NS(8),
		PerCachelineLat: sim.NS(80),
		DMAReadLatency:  sim.NS(400),
		DMAWriteLatency: sim.NS(200),
		BytesPerSec:     6.0e9, // ~7.9 GB/s raw minus protocol overheads
		TLPHeaderBytes:  24,
		MaxPayload:      256,
	}
}

// Gen2x8 returns parameters for a PCIe 2.0 x8 host (the Susitna cluster).
func Gen2x8() Params {
	return Params{
		PerDoorbell:     sim.NS(22),
		PerCacheline:    sim.NS(16),
		PerCachelineWC:  sim.NS(10),
		PerCachelineLat: sim.NS(100),
		DMAReadLatency:  sim.NS(500),
		DMAWriteLatency: sim.NS(250),
		BytesPerSec:     3.0e9,
		TLPHeaderBytes:  24,
		MaxPayload:      128,
	}
}

// Bus is one host's PCIe attachment point. PIO traffic shares a single
// write-combining engine; DMA traffic is full duplex, with separate
// to-host (device writes) and from-host (device reads) data paths.
type Bus struct {
	eng      *sim.Engine
	p        Params
	pio      *sim.Server
	toHost   *sim.Server
	fromHost *sim.Server

	// Telemetry handles (nil when un-instrumented). DMA reads are
	// non-posted transactions (the device holds request state until the
	// completion returns); DMA writes are posted — the distinction the
	// paper leans on in Section 3.2.2.
	telPIOWrites, telPIOBytes         *telemetry.Counter
	telNonPostedTx, telNonPostedBytes *telemetry.Counter
	telPostedTx, telPostedBytes       *telemetry.Counter

	free []*busJob // recycled transaction records
}

// busJob is one in-flight transaction: engine occupancy on a data path,
// then a fixed latency, then done. It is the sim.Handler for both
// stages, so a transaction schedules its two events without closures.
type busJob struct {
	b       *Bus
	lat     sim.Time
	done    func(sim.Time)
	settled bool // occupancy over; the latency event is pending
}

// Fire runs the job's current stage.
//
//herd:hotpath
func (j *busJob) Fire(at sim.Time) {
	if !j.settled {
		j.settled = true
		j.b.eng.AfterHandler(j.lat, j)
		return
	}
	done := j.done
	j.b.release(j)
	if done != nil {
		done(at)
	}
}

// job returns a pooled record for a transaction with latency lat.
func (b *Bus) job(lat sim.Time, done func(sim.Time)) *busJob {
	var j *busJob
	if n := len(b.free); n > 0 {
		j = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		j = &busJob{b: b}
	}
	j.lat, j.done = lat, done
	return j
}

func (b *Bus) release(j *busJob) {
	j.done, j.settled = nil, false
	b.free = append(b.free, j)
}

// NewBus returns a bus on eng with the given parameters.
func NewBus(eng *sim.Engine, p Params) *Bus {
	return &Bus{
		eng:      eng,
		p:        p,
		pio:      sim.NewServer(eng),
		toHost:   sim.NewServer(eng),
		fromHost: sim.NewServer(eng),
	}
}

// Params returns the bus parameters.
func (b *Bus) Params() Params { return b.p }

// SetTelemetry attaches metric counters for PIO and posted/non-posted
// DMA transactions. Counter names are shared across buses, so a
// cluster's machines aggregate into one set of pcie.* metrics.
func (b *Bus) SetTelemetry(s *telemetry.Sink) {
	b.telPIOWrites = s.Counter("pcie.pio.writes")
	b.telPIOBytes = s.Counter("pcie.pio.bytes")
	b.telNonPostedTx = s.Counter("pcie.dma.nonposted.reads")
	b.telNonPostedBytes = s.Counter("pcie.dma.nonposted.bytes")
	b.telPostedTx = s.Counter("pcie.dma.posted.writes")
	b.telPostedBytes = s.Counter("pcie.dma.posted.bytes")
}

// Cachelines returns how many write-combining flushes n bytes require.
func Cachelines(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + CachelineBytes - 1) / CachelineBytes
}

// PIOCost returns the service time of a PIO write of n bytes
// (doorbell plus write-combined cachelines, with buffer-pressure cost
// for WQEs beyond two cachelines).
func (b *Bus) PIOCost(n int) sim.Time {
	cls := Cachelines(n)
	cost := b.p.PerDoorbell + sim.Time(cls)*b.p.PerCacheline
	if cls > 2 {
		cost += sim.Time(cls-2) * b.p.PerCachelineWC
	}
	return cost
}

// PIOExtraLatency returns the latency a single WQE of n bytes experiences
// beyond its engine occupancy: within one WQE the CPU's write-combined
// stores do not pipeline, so each cacheline costs PerCachelineLat.
func (b *Bus) PIOExtraLatency(n int) sim.Time {
	extra := sim.Time(Cachelines(n)) * (b.p.PerCachelineLat - b.p.PerCacheline)
	if extra < 0 {
		return 0
	}
	return extra
}

// PIOWrite submits a PIO write of n bytes (a doorbell carrying an inlined
// WQE). done, if non-nil, runs when the device has received the full WQE,
// including the non-pipelined per-cacheline store latency.
//
//herd:hotpath
func (b *Bus) PIOWrite(n int, done func(sim.Time)) {
	b.telPIOWrites.Inc()
	b.telPIOBytes.Add(uint64(n))
	b.pio.SubmitHandler(b.PIOCost(n), b.job(b.PIOExtraLatency(n), done))
}

func (b *Bus) xferTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	tlps := (n + b.p.MaxPayload - 1) / b.p.MaxPayload
	total := n + tlps*b.p.TLPHeaderBytes
	return sim.Time(float64(total) / b.p.BytesPerSec * float64(sim.Second))
}

// DMAReadCost returns the occupancy a DMA read of n bytes places on the
// from-host data path (not counting the non-posted round-trip latency).
func (b *Bus) DMAReadCost(n int) sim.Time { return b.xferTime(n) }

// DMAWriteCost returns the occupancy a DMA write of n bytes places on the
// to-host data path.
func (b *Bus) DMAWriteCost(n int) sim.Time { return b.xferTime(n) }

// DMARead submits a device-initiated read of n bytes from host memory.
// done runs when the completion data has arrived at the device; it
// includes the non-posted round-trip latency.
//
//herd:hotpath
func (b *Bus) DMARead(n int, done func(sim.Time)) {
	b.telNonPostedTx.Inc()
	b.telNonPostedBytes.Add(uint64(n))
	b.fromHost.SubmitHandler(b.xferTime(n), b.job(b.p.DMAReadLatency, done))
}

// DMAWrite submits a device-initiated posted write of n bytes to host
// memory. done runs when the data is visible in host memory.
//
//herd:hotpath
func (b *Bus) DMAWrite(n int, done func(sim.Time)) {
	b.telPostedTx.Inc()
	b.telPostedBytes.Add(uint64(n))
	b.toHost.SubmitHandler(b.xferTime(n), b.job(b.p.DMAWriteLatency, done))
}

// PIOUtilization reports the PIO engine's utilization so far.
func (b *Bus) PIOUtilization() float64 { return b.pio.Utilization() }

// ToHostUtilization reports the device-to-host DMA path utilization.
func (b *Bus) ToHostUtilization() float64 { return b.toHost.Utilization() }

// FromHostUtilization reports the host-to-device DMA path utilization.
func (b *Bus) FromHostUtilization() float64 { return b.fromHost.Utilization() }
