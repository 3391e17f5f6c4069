//go:build !race

package cluster

const checkWindows = false
