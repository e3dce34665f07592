//go:build smavetcustom

package buildtags

const variant = "custom"
