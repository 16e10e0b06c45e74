// Package lib holds one function of each kind the walk tells apart.
package lib

// Unreached is exported and nothing calls it: the walk reports it.
func Unreached() int { return 1 }

// Doer is the interface the tool calls Impl through.
type Doer interface{ Do() int }

// Impl is converted to a Doer.
type Impl struct{}

// Do is reached only through a Doer call.
func (Impl) Do() int { return 2 }

// Benched is reached only from the benchmark-like root module.
func Benched() int { return 3 }

// Store is aliased by the facade.
type Store struct{ n int }

// Count is reached only as a method of a type the facade aliases.
func (s *Store) Count() int { return s.n }
