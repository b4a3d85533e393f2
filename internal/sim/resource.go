package sim

// Server models a single-unit FIFO service resource (e.g. a NIC
// processing unit, a PCIe PIO engine, a wire). Work is submitted with a
// service time and served in submission order.
type Server struct {
	eng    *Engine
	freeAt Time // when the unit finishes its booked work
	busy   Time // accumulated busy time, for utilization
	jobs   uint64
}

// NewServer returns a single-unit server on eng.
func NewServer(eng *Engine) *Server { return &Server{eng: eng} }

// Jobs returns the number of jobs submitted so far.
func (s *Server) Jobs() uint64 { return s.jobs }

// BusyTime returns the total busy time accumulated so far.
func (s *Server) BusyTime() Time { return s.busy }

// Utilization reports the busy fraction of [0, now].
func (s *Server) Utilization() float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(s.busy) / float64(now)
}

// Submit enqueues a job with the given service time. done (if non-nil)
// runs when service completes and receives the completion time.
// Submit returns the scheduled completion time.
//
//herd:hotpath
func (s *Server) Submit(service Time, done func(end Time)) Time {
	end := s.reserve(service)
	if done != nil {
		s.eng.AtHandler(end, completion(done))
	}
	return end
}

// SubmitHandler enqueues a job like Submit and fires h at its
// completion time.
//
//herd:hotpath
func (s *Server) SubmitHandler(service Time, h Handler) Time {
	end := s.reserve(service)
	s.eng.AtHandler(end, h)
	return end
}

// reserve books service time after the unit's queued work and returns
// the job's completion time.
func (s *Server) reserve(service Time) Time {
	if service < 0 {
		service = 0
	}
	start := s.freeAt
	if now := s.eng.Now(); start < now {
		start = now
	}
	s.freeAt = start + service
	s.busy += service
	s.jobs++
	return s.freeAt
}
