// torevasion demonstrates §7.3: on a Tor-filtering path the GFW
// fingerprints the bridge handshake, resets the connection, and — after
// active probing — null-routes the bridge IP; INTANG keeps the same
// bridge usable.
package main

import (
	"fmt"
	"time"

	"intango/internal/appsim"
	"intango/internal/gfw"
	"intango/internal/intang"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

const bridgePort = 9001

func buildPath(filtered bool, seed int64) (*netem.Simulator, *netem.Fabric, *gfw.Device, packet.Addr) {
	bridge := packet.AddrFrom4(52, 3, 17, 99)
	sim := netem.NewSimulator(seed)
	path := netem.NewChain(sim, 11, netem.Link{}, netem.Link{Latency: time.Millisecond})
	dev := gfw.NewDevice("gfw", gfw.Config{
		Model:             gfw.ModelEvolved2017,
		TorFiltering:      filtered,
		ActiveProbeDelay:  10 * time.Second,
		DetectionMissProb: -1,
	}, sim.Rand())
	path.Node(4).Taps = []netem.Processor{dev} // the fourth router
	path.Node(4).Processors = []netem.Processor{dev.IPFilter()}
	srv := tcpstack.NewStack(bridge, tcpstack.Linux44(), sim)
	srv.AttachServer(path)
	appsim.ServeTorBridge(srv, bridgePort)
	return sim, path, dev, bridge
}

func torAttempt(sim *netem.Simulator, cli *tcpstack.Stack, bridge packet.Addr) string {
	conn := cli.Connect(bridge, bridgePort)
	sim.RunFor(500 * time.Millisecond)
	if conn.State() != tcpstack.Established {
		return "connect failed (blackholed?)"
	}
	conn.Write(appsim.TorClientHello())
	sim.RunFor(2 * time.Second)
	if conn.GotRST {
		return "reset during handshake"
	}
	conn.Write([]byte("relay-cell"))
	sim.RunFor(2 * time.Second)
	if conn.GotRST || len(conn.Received()) == 0 {
		return "circuit dead"
	}
	return "circuit up"
}

func main() {
	client := packet.AddrFrom4(10, 0, 0, 1)

	fmt.Println("Northern-China path (no Tor-filtering devices):")
	sim, path, _, bridge := buildPath(false, 1)
	cli := tcpstack.NewStack(client, tcpstack.Linux44(), sim)
	cli.AttachClient(path)
	fmt.Println("  plain Tor:", torAttempt(sim, cli, bridge))

	fmt.Println("\nFiltered path:")
	sim, path, dev, bridge := buildPath(true, 2)
	cli = tcpstack.NewStack(client, tcpstack.Linux44(), sim)
	cli.AttachClient(path)
	fmt.Println("  plain Tor:", torAttempt(sim, cli, bridge))
	sim.RunFor(time.Minute)
	fmt.Printf("  bridge IP null-routed after active probing: %v\n", dev.IsIPBlocked(bridge))
	sim.RunFor(2 * time.Minute) // blocklist lapses; IP block remains
	fmt.Println("  reconnect attempt:", torAttempt(sim, cli, bridge))

	fmt.Println("\nFiltered path with INTANG (improved TCB teardown):")
	sim, path, dev, bridge = buildPath(true, 3)
	cli = tcpstack.NewStack(client, tcpstack.Linux44(), sim)
	it := intang.New(sim, path, cli, intang.Options{Candidates: []string{"improved-teardown"}})
	it.Engine.Env.InsertionTTL = 10
	fmt.Println("  protected Tor:", torAttempt(sim, cli, bridge))
	sim.RunFor(time.Minute)
	fmt.Printf("  bridge fingerprinted: %v (the GFW never saw the handshake)\n", dev.IsIPBlocked(bridge))
}
