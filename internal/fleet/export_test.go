package fleet

// DiffPlacements exposes the differential placement check to the
// external test package, which can import the scenario fuzzer.
var DiffPlacements = diffPlacements
