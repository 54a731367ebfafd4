//go:build race

package crashsim

func init() { raceEnabled = true }
