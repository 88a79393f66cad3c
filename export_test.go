package infinicache

// Resolve exposes the options → core.Config resolution to the external
// tests (TestNewDefaults).
var Resolve = resolve
