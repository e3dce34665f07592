//go:build !smavetcustom

// Package buildtags is the loader's build-constraint fixture: variant is
// declared once per build configuration, so loading both files of the
// pair would fail as a duplicate declaration.
package buildtags

const variant = "default"
