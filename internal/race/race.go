//go:build race

// Package race reports whether the binary was built with the race
// detector. Tests use it to skip allocation gates in race builds: the race
// runtime allocates on its own schedule, so testing.AllocsPerRun counts
// are not reproducible there.
package race

// Enabled is true in race builds.
const Enabled = true
