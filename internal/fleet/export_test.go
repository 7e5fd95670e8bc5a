package fleet

// DiffPlacements exposes the differential placement check to the
// external test package, which can import the scenario fuzzer.
var DiffPlacements = diffPlacements

// SmallDef exposes the small in-package test fleet to the external
// test package's goldens.
var SmallDef = testDef
