// Package exporttest is the loader's export_test.go fixture: its external
// test package calls what only the in-package test file exports.
package exporttest

func double(x int) int { return 2 * x }
