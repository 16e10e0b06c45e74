package storage

// Test-only: the objects a store has recorded as lost.

// LostObjects returns the IDs recorded as lost, in unspecified order.
func (s *System) LostObjects() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.lost))
	for id := range s.lost {
		out = append(out, id)
	}
	return out
}
