//rbvet:pkgpath repro/cmd/rubberband
package fixture

import rand "math/rand/v2" // want `\[globalrand\] import of math/rand/v2 outside internal/stats`

// pick uses v2's global generator; still hidden state.
func pick(n int) int {
	return rand.IntN(n)
}
