package fixture

import "math/rand"

// Draw is the map-ordered draw in operator code: flagged only inside the
// replayable scope.
func Draw(rnd *rand.Rand, m map[string]int) {
	for k := range m { // want "draws from rnd"
		m[k] = rnd.Intn(10)
	}
}
