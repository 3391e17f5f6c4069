//go:build race

package serve

// raceEnabled reports a build with the race detector, whose shadow memory
// distorts heap sizes.
const raceEnabled = true
