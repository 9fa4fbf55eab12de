package sim

// Test hooks for the external recycle-equivalence test, which runs plan
// searches (package planner imports sim, so the test is in package
// sim_test). They move tables directly rather than through tablePool,
// whose items a garbage collection or the race detector may drop.

// UseFreshTable gives s a table no Simulator has used.
func UseFreshTable(s *Simulator) { s.tab = newSegTable() }

// RecycleInto releases from's table as Release does and hands it to to,
// which must not have drawn a table yet.
func RecycleInto(from, to *Simulator) { to.tab = from.detachTable() }
