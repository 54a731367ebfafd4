package suite

import "ballista/internal/sim/kern"

// RepairFixtures runs the full repair pass whatever the dirty flag says,
// so the soundness oracle can compare it against the skip.
var RepairFixtures = repairFixtures

// SetupFixturesWithoutTemplate is SetupFixtures with the brand-new
// machine's template copy disabled: it always takes the full repair, as
// SetupFixtures did before the template existed.
func SetupFixturesWithoutTemplate(k *kern.Kernel) { setupFixtures(k, false) }
