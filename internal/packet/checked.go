//go:build intango_checked

package packet

// Checked reports the checked build (go build -tags intango_checked):
// a released packet is poisoned and never recycled, and bytes a trial
// gives back are scribbled over and never handed out again, so a use
// after release reads junk instead of the next owner's data, and a
// golden moves.
const Checked = true
