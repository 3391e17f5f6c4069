//go:build race

package cluster

// checkWindows turns on the windows' read-only check (see Expose) in builds
// with the race detector.
const checkWindows = true
