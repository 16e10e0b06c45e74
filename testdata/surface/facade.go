// Package fixture is the facade of the reachability walk's test module.
package fixture

import "fixture/lib"

// Store is aliased, so its exported methods are roots.
type Store = lib.Store
