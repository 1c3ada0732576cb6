// Package detrandbad seeds the detrand golden cases: unseeded global
// math/rand draws and wall-clock reads in an internal/ logic package.
package detrandbad

import (
	"math/rand"
	"time"
)

// Jitter draws from the global source — the exact class of bug the
// seeding discipline exists to prevent.
func Jitter() float64 {
	return rand.Float64() // want "detrand: math/rand\.Float64 draws from the unseeded global source"
}

// Stamp reads the wall clock in a deterministic package.
func Stamp() time.Time {
	return time.Now() // want "detrand: time\.Now in deterministic package detrandbad"
}

// Elapsed measures with the wall clock.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "detrand: time\.Since in deterministic package detrandbad"
}

// Seeded is the sanctioned idiom: an explicit source.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// AllowedStamp carries an annotated suppression with a reason.
func AllowedStamp() time.Time {
	return time.Now() //lint:allow detrand timing column of a measured experiment table
}

// BareAllow's directive has no reason: the finding is suppressed but
// the directive itself is reported by the "lint" hygiene pass.
func BareAllow() time.Time {
	// want "lint: //lint:allow detrand is missing its reason string"
	//lint:allow detrand
	return time.Now()
}

// StaleAllow's directive matches no finding: reported as unused.
func StaleAllow() int {
	// want "lint: unused //lint:allow maprange directive"
	//lint:allow maprange stale suppression kept after a refactor
	return 0
}

// MisspelledAllow names a check outside the suite: a typo or a deleted
// check would otherwise pass silently, so the name itself is reported.
func MisspelledAllow() time.Time {
	// want "lint: //lint:allow names unknown check .detrnd."
	//lint:allow detrnd timing column of a measured experiment table
	return time.Now() // want "detrand: time\.Now in deterministic package detrandbad"
}
