//go:build !intango_checked

package packet

// Checked reports the checked build (see checked.go). A normal build
// recycles packets and bytes and pays nothing for the checks.
const Checked = false
