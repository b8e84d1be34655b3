package vliw

// ExecuteRef exposes the original *ir.Op-walking executor to the external
// test package: the differential tests run it against the decoded engine
// and require bit-identical results.
var ExecuteRef = executeRef
