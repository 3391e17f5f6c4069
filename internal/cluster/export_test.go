package cluster

// CollWakes returns how many times a rank parked in a collective rendezvous
// has woken up on m (a host-only counter: no clock, Stats or trace sees it).
func (m *Machine) CollWakes() int64 { return m.collWakes.Load() }

// WorldArrivals returns how many ranks have arrived at the world
// communicator's open rendezvous round.
func (m *Machine) WorldArrivals() int {
	<-m.coll.mu.ch
	defer m.coll.mu.unlock()
	return m.coll.cur.arrived
}

// Active reports whether rank id is currently an active member. Ranks
// outside [0, Ranks) are never active.
func (m *Machine) Active(id int) bool {
	if id < 0 || id >= m.cfg.Ranks {
		return false
	}
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	return m.active[id]
}

// ActiveCount returns the current active-member count.
func (m *Machine) ActiveCount() int {
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	n := 0
	for _, a := range m.active {
		if a {
			n++
		}
	}
	return n
}
