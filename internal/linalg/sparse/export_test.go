package sparse

// CheckAgainstOracle exposes checkAgainstOracle to the external test
// package, which builds the reliability chains this package serves.
var CheckAgainstOracle = checkAgainstOracle

// CheckLanes exposes checkLanes to the external test package.
var CheckLanes = checkLanes
