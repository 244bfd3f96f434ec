package emu

// CheckLaunch exposes the three-way launch differential to corpus_test.go,
// which lives in the external test package so it can import internal/verify
// (verify imports emu) for the committed case corpus and the generator.
var CheckLaunch = checkLaunch
