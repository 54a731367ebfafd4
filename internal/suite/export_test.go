package suite

// RepairFixtures runs the full repair pass whatever the dirty flag says,
// so the soundness oracle can compare it against the skip.
var RepairFixtures = repairFixtures
