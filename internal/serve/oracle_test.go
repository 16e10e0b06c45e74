package serve

// CacheLen returns the number of completed cached results.
func (s *Server) CacheLen() int { return s.cache.len() }

// len returns the number of completed cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
