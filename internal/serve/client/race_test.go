//go:build race

package client

const raceEnabled = true
