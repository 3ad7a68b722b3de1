package middlebox

import (
	"math/rand"

	"intango/internal/netem"
	"intango/internal/packet"
)

// ProfileName identifies one of the four client-side middlebox
// behaviours measured in Table 2.
type ProfileName string

// The Table 2 profiles.
const (
	ProfileAliyun    ProfileName = "aliyun"
	ProfileQCloud    ProfileName = "qcloud"
	ProfileUnicomSJZ ProfileName = "unicom-sjz"
	ProfileUnicomTJ  ProfileName = "unicom-tj"
)

// AllProfiles lists the Table 2 profiles with the share of vantage
// points using each (6/11, 3/11, 1/11, 1/11).
func AllProfiles() []ProfileName {
	return []ProfileName{ProfileAliyun, ProfileQCloud, ProfileUnicomSJZ, ProfileUnicomTJ}
}

// sometimesProb is the drop probability backing Table 2's "sometimes
// dropped" cells.
const sometimesProb = 0.4

// BuildProfile returns the client-side middlebox chain for a profile,
// exactly per Table 2:
//
//	                 Aliyun      QCloud      Unicom SJZ  Unicom TJ
//	IP fragments     discarded   reassembled reassembled reassembled
//	wrong checksum   pass        pass        pass        dropped
//	no TCP flag      pass        pass        pass        dropped
//	RST packets      pass        sometimes   pass        pass
//	FIN packets      sometimes   pass        dropped     dropped
func BuildProfile(p ProfileName, rng *rand.Rand) []netem.Processor {
	return new(Chain).Reset(p, rng)
}

// Chain holds one profile's middlebox chain. A world rebuilt for each
// trial keeps one and rebuilds it in place (Reset). Every profile has
// at most one reassembler and one flag dropper; the other middleboxes
// hold no state.
type Chain struct {
	procs []netem.Processor
	reasm FragmentReassembler
	flag  FlagDropper
}

// Reset rebuilds c as profile p's chain and returns it, as
// BuildProfile does; what c returned before is dead. Reset on a zero
// Chain is BuildProfile.
func (c *Chain) Reset(p ProfileName, rng *rand.Rand) []netem.Processor {
	clear(c.procs)
	procs := c.procs[:0]
	switch p {
	case ProfileAliyun:
		procs = append(procs, FragmentDropper{},
			c.flag.reset("fin-dropper", packet.FlagFIN, sometimesProb, rng))
	case ProfileQCloud:
		procs = append(procs, c.reasm.reset(),
			c.flag.reset("rst-dropper", packet.FlagRST, sometimesProb, rng))
	case ProfileUnicomSJZ:
		procs = append(procs, c.reasm.reset(),
			c.flag.reset("fin-dropper", packet.FlagFIN, 1.0, rng))
	case ProfileUnicomTJ:
		procs = append(procs, c.reasm.reset(), ChecksumValidator{}, FlaglessDropper{},
			c.flag.reset("fin-dropper", packet.FlagFIN, 1.0, rng))
	}
	c.procs = procs
	return procs
}
