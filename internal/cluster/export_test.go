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
