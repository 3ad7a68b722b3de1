// Command gfwprobe runs the hypothesis-probing experiments of §4
// against the simulated GFW models and prints what each probe reveals,
// then regenerates the §5.3 insertion-packet analysis (Table 3) and
// its cross-validation notes.
package main

import (
	"flag"
	"fmt"
	"time"

	"intango/internal/gfw"
	"intango/internal/ignorepath"
	"intango/internal/netem"
	"intango/internal/packet"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

// probe builds a fresh device on a short path and returns a send
// helper plus the device.
func probe(model gfw.Model, rstResync bool) (*netem.Simulator, func(p *packet.Packet, fromClient bool), *gfw.Device, *[]string) {
	sim := netem.NewSimulator(11)
	cfg := gfw.Config{Model: model, Keywords: []string{"ultrasurf"}, DetectionMissProb: -1, ResyncOnRSTProb: 1}
	dev := gfw.NewDevice("gfw", cfg, sim.Rand())
	dev.SetRSTResyncs(rstResync)
	var events []string
	dev.OnEvent = func(ev gfw.Event) { events = append(events, ev.Kind+":"+ev.Detail) }
	path := netem.NewChain(sim, 4, netem.Link{}, netem.Link{Latency: time.Millisecond})
	path.Node(2).Taps = []netem.Processor{dev} // the second router
	send := func(p *packet.Packet, fromClient bool) {
		if fromClient {
			path.SendFromClient(p)
		} else {
			path.SendFromServer(p)
		}
		sim.Run(1000)
	}
	return sim, send, dev, &events
}

func tcp(fromClient bool, flags uint8, seq, ack packet.Seq, payload string) *packet.Packet {
	if fromClient {
		return packet.NewTCP(cliAddr, 4000, srvAddr, 80, flags, seq, ack, []byte(payload))
	}
	return packet.NewTCP(srvAddr, 80, cliAddr, 4000, flags, seq, ack, []byte(payload))
}

func detected(events []string) bool {
	for _, e := range events {
		if e == "detect:" {
			return true
		}
	}
	return false
}

func main() {
	table3 := flag.Bool("table3", true, "also run the §5.3 ignore-path analysis")
	flag.Parse()

	fmt.Println("== Hypothesized New Behavior 1: TCB creation ==")
	for _, model := range []gfw.Model{gfw.ModelKhattak2013, gfw.ModelEvolved2017} {
		_, send, dev, _ := probe(model, false)
		synack := tcp(true, packet.FlagSYN|packet.FlagACK, 100, 200, "")
		synack.IP.TTL = 2
		synack.Finalize()
		send(synack, true)
		fmt.Printf("  %-14s SYN/ACK alone creates a TCB: %v\n", model, dev.TCBCount() == 1)
	}

	fmt.Println("\n== Hypothesized New Behavior 2: resynchronization state ==")
	_, send, dev, events := probe(gfw.ModelEvolved2017, false)
	send(tcp(true, packet.FlagSYN, 1000, 0, ""), true)
	send(tcp(true, packet.FlagSYN, 5000, 0, ""), true)
	st, _ := dev.TCBState(packet.FourTuple{SrcAddr: cliAddr, SrcPort: 4000, DstAddr: srvAddr, DstPort: 80})
	fmt.Printf("  multiple SYNs            -> state %s\n", st)
	send(tcp(true, packet.FlagPSH|packet.FlagACK, 777777, 1, "GET /?q=ultrasurf HTTP/1.1\r\n\r\n"), true)
	fmt.Printf("  out-of-window request    -> resynchronized and detected: %v\n", detected(*events))

	_, send2, _, events2 := probe(gfw.ModelEvolved2017, false)
	send2(tcp(true, packet.FlagSYN, 1000, 0, ""), true)
	send2(tcp(true, packet.FlagSYN, 5000, 0, ""), true)
	send2(tcp(true, packet.FlagPSH|packet.FlagACK, 999999, 1, "z"), true) // desync
	send2(tcp(true, packet.FlagPSH|packet.FlagACK, 1001, 1, "GET /?q=ultrasurf HTTP/1.1\r\n\r\n"), true)
	fmt.Printf("  after desync packet      -> request detected: %v (evasion works when false)\n", detected(*events2))

	fmt.Println("\n== Hypothesized New Behavior 3: RST handling ==")
	for _, resync := range []bool{false, true} {
		_, send3, _, events3 := probe(gfw.ModelEvolved2017, resync)
		send3(tcp(true, packet.FlagSYN, 1000, 0, ""), true)
		send3(tcp(true, packet.FlagRST, 1001, 0, ""), true)
		send3(tcp(true, packet.FlagPSH|packet.FlagACK, 1001, 1, "GET /?q=ultrasurf HTTP/1.1\r\n\r\n"), true)
		mode := "tears down TCB"
		if resync {
			mode = "enters resync "
		}
		fmt.Printf("  device that %s -> keyword after RST detected: %v\n", mode, detected(*events3))
	}

	if *table3 {
		fmt.Println("\n== §5.3 ignore-path analysis (regenerates Table 3) ==")
		findings := ignorepath.Analyze()
		fmt.Print(ignorepath.FormatTable3(findings))
		fmt.Println("\ncross-validation against older stacks:")
		for _, note := range ignorepath.CrossValidation(findings) {
			fmt.Println("  ", note)
		}
	}
}
