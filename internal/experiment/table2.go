package experiment

import (
	"fmt"
	"strings"
	"time"

	"intango/internal/middlebox"
	"intango/internal/netem"
	"intango/internal/packet"
)

// Table2Result is the observed middlebox behaviour for one packet type
// at one profile.
type Table2Result struct {
	PacketType string
	Behaviour  map[middlebox.ProfileName]string
}

// RunTable2 reproduces Table 2: probing each vantage point's
// client-side middleboxes with the five studied packet types against a
// controlled server.
func RunTable2(seed int64) []Table2Result {
	types := []struct {
		name  string
		build func(cli, srv packet.Addr) []*packet.Packet
	}{
		{"IP fragments", func(cli, srv packet.Addr) []*packet.Packet {
			p := packet.NewTCP(cli, 4000, srv, 80, packet.FlagPSH|packet.FlagACK, 1, 1,
				[]byte(strings.Repeat("x", 96)))
			frags, err := packet.Fragment(p, 60)
			if err != nil {
				return nil
			}
			return frags
		}},
		{"Wrong TCP checksum", func(cli, srv packet.Addr) []*packet.Packet {
			p := packet.NewTCP(cli, 4000, srv, 80, packet.FlagPSH|packet.FlagACK, 1, 1, []byte("probe"))
			p.TCP.Checksum ^= 0x5555
			p.BadTCPChecksum = true
			return []*packet.Packet{p}
		}},
		{"No TCP flag", func(cli, srv packet.Addr) []*packet.Packet {
			return []*packet.Packet{packet.NewTCP(cli, 4000, srv, 80, 0, 1, 0, []byte("probe"))}
		}},
		{"RST packets", func(cli, srv packet.Addr) []*packet.Packet {
			return []*packet.Packet{packet.NewTCP(cli, 4000, srv, 80, packet.FlagRST, 1, 0, nil)}
		}},
		{"FIN packets", func(cli, srv packet.Addr) []*packet.Packet {
			return []*packet.Packet{packet.NewTCP(cli, 4000, srv, 80, packet.FlagFIN|packet.FlagACK, 1, 1, nil)}
		}},
	}

	cli := packet.AddrFrom4(10, 0, 0, 1)
	srv := packet.AddrFrom4(203, 0, 113, 9)
	const trials = 30

	var results []Table2Result
	for _, typ := range types {
		res := Table2Result{PacketType: typ.name, Behaviour: make(map[middlebox.ProfileName]string)}
		for _, prof := range middlebox.AllProfiles() {
			sim := netem.NewSimulator(seed)
			path := netem.NewChain(sim, 2, netem.Link{}, netem.Link{Latency: time.Millisecond})
			path.Node(1).Processors = middlebox.BuildProfile(prof, sim.Rand())
			whole, frags := 0, 0
			path.Server = netem.EndpointFunc(func(pkt *packet.Packet) {
				if pkt.IP.IsFragment() {
					frags++
				} else {
					whole++
				}
			})
			sentBatches := 0
			for i := 0; i < trials; i++ {
				pkts := typ.build(cli, srv)
				if pkts == nil {
					continue
				}
				sentBatches++
				for _, p := range pkts {
					path.SendFromClient(p.Clone())
				}
			}
			sim.Run(1_000_000)
			res.Behaviour[prof] = classifyTable2(typ.name, sentBatches, whole, frags)
		}
		results = append(results, res)
	}
	return results
}

func classifyTable2(typ string, batches, whole, frags int) string {
	if typ == "IP fragments" {
		switch {
		case whole == 0 && frags == 0:
			return "Discarded"
		case whole >= batches && frags == 0:
			return "Reassembled"
		default:
			return "Forwarded"
		}
	}
	switch {
	case whole >= batches:
		return "Pass"
	case whole == 0:
		return "Dropped"
	default:
		return "Sometimes dropped"
	}
}

// FormatTable2 renders the results in the paper's layout.
func FormatTable2(results []Table2Result) string {
	profs := middlebox.AllProfiles()
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "Packet Type")
	headers := map[middlebox.ProfileName]string{
		middlebox.ProfileAliyun:    "Aliyun(6/11)",
		middlebox.ProfileQCloud:    "QCloud(3/11)",
		middlebox.ProfileUnicomSJZ: "Unicom SJZ(1/11)",
		middlebox.ProfileUnicomTJ:  "Unicom TJ(1/11)",
	}
	for _, p := range profs {
		fmt.Fprintf(&b, " %-18s", headers[p])
	}
	b.WriteString("\n")
	for _, res := range results {
		fmt.Fprintf(&b, "%-20s", res.PacketType)
		for _, p := range profs {
			fmt.Fprintf(&b, " %-18s", res.Behaviour[p])
		}
		b.WriteString("\n")
	}
	return b.String()
}
