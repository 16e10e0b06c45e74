package sparse

// CheckAgainstOracle exposes checkAgainstOracle to the external test
// package, which builds the reliability chains this package serves.
var CheckAgainstOracle = checkAgainstOracle

// CheckProgram exposes checkProgram to the external test package.
var CheckProgram = checkProgram
