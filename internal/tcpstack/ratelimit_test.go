package tcpstack

import (
	"testing"
	"time"

	"intango/internal/obs"
	"intango/internal/packet"
)

// TestACKLoopLimits holds each profile to the kernel's ACK-loop limits:
// Linux ≥ 4.0 answers at most one dataless challenge-provoking segment
// per 500 ms per socket (tcp_invalid_ratelimit), every Linux that sends
// RFC 5961 challenge ACKs answers at most 100 of them per second per
// host (tcp_challenge_ack_limit), segments carrying data or a FIN are
// never limited, and the pre-4.0 stacks have no per-socket limit.
func TestACKLoopLimits(t *testing.T) {
	for _, tc := range []struct {
		prof Profile
		// limit is the per-socket interval; zero means unlimited.
		limit time.Duration
		// rstChallenge and synChallenge: the profile answers an
		// in-window inexact RST, or a SYN, with an RFC 5961 challenge
		// ACK (older stacks abort instead).
		rstChallenge, synChallenge bool
	}{
		{Linux44(), 500 * time.Millisecond, true, true},
		{Linux40(), 500 * time.Millisecond, true, true},
		{Linux314(), 0, true, false},
		{Linux2634(), 0, false, false},
		{Linux2437(), 0, false, false},
	} {
		t.Run(tc.prof.Name, func(t *testing.T) {
			if got := tc.prof.InvalidRateLimit; got != tc.limit {
				t.Fatalf("InvalidRateLimit = %v, want %v", got, tc.limit)
			}
			sim, _, cli, srv := pair(t, Linux44(), tc.prof)
			c, sc := establish(t, sim, cli, srv)
			reg := obs.NewRegistry()
			srv.Obs = obs.New(reg, nil)
			answers := 0
			srv.Send = func(*packet.Packet) { answers++ }
			// send delivers n copies of a segment at the current instant
			// and returns how many the server answered.
			send := func(n int, mk func() *packet.Packet) int {
				t.Helper()
				answers = 0
				for i := 0; i < n; i++ {
					srv.Deliver(mk())
				}
				return answers
			}
			seg := func(flags uint8, seq, ack packet.Seq, payload string, ts bool) func() *packet.Packet {
				return func() *packet.Packet {
					p := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80, flags, seq, ack, []byte(payload))
					if ts {
						p.TCP.Options = append(p.TCP.Options, packet.TimestampOption(1, 0)) // ancient: PAWS fails
						p.Finalize()
					}
					return p
				}
			}
			unsentAck := sc.SndNxt().Add(99999)
			pawsData := seg(packet.FlagPSH|packet.FlagACK, sc.RcvNxt(), sc.SndNxt(), "junk", true)
			pawsBare := seg(packet.FlagACK, sc.RcvNxt(), sc.SndNxt(), "", true)
			unsentData := seg(packet.FlagPSH|packet.FlagACK, sc.RcvNxt(), unsentAck, "junk", false)
			unsentBare := seg(packet.FlagACK, sc.RcvNxt(), unsentAck, "", false)
			unsentFIN := seg(packet.FlagFIN|packet.FlagACK, sc.RcvNxt(), unsentAck, "", false)
			rst := seg(packet.FlagRST, sc.RcvNxt().Add(100), 0, "", false)
			syn := seg(packet.FlagSYN, sc.RcvNxt().Add(100), 0, "", false)

			// Data or a FIN without a SYN is never part of an ACK loop:
			// answered every time, and it leaves the limiter untouched.
			for name, mk := range map[string]func() *packet.Packet{
				"data-bearing PAWS failure":        pawsData,
				"data-bearing ack-for-unsent-data": unsentData,
				"FIN ack-for-unsent-data":          unsentFIN,
			} {
				if got := send(5, mk); got != 5 {
					t.Errorf("%s: answered %d of 5", name, got)
				}
			}

			// Dataless segments that draw an ACK: one per interval on a
			// limited socket, every one otherwise.
			want := func(n int) int {
				if tc.limit > 0 {
					return 1
				}
				return n
			}
			limited := map[string]func() *packet.Packet{
				"dataless PAWS failure":        pawsBare,
				"dataless ack-for-unsent-data": unsentBare,
			}
			if tc.rstChallenge {
				limited["in-window RST"] = rst
			}
			if tc.synChallenge {
				limited["SYN"] = syn
			}
			for name, mk := range limited {
				if got := send(5, mk); got != want(5) {
					t.Errorf("%s: answered %d of 5 at once, want %d", name, got, want(5))
				}
				if tc.limit == 0 {
					continue
				}
				sim.RunFor(tc.limit - time.Millisecond)
				if got := send(1, mk); got != 0 {
					t.Errorf("%s: answered again %v later", name, tc.limit-time.Millisecond)
				}
				sim.RunFor(time.Millisecond)
				if got := send(1, mk); got != 1 {
					t.Errorf("%s: not answered again %v after the first answer", name, tc.limit)
				}
				// The interval is shared by every reason on the socket.
				if got := send(1, pawsBare); got != 0 {
					t.Errorf("%s: a dataless PAWS failure right after it was answered", name)
				}
				sim.RunFor(tc.limit)
			}
			if tc.limit > 0 {
				if n := reg.Value("tcpstack.ack-ratelimited"); n == 0 {
					t.Error("tcpstack.ack-ratelimited not counted")
				}
			} else if n := reg.Value("tcpstack.ack-ratelimited"); n != 0 {
				t.Errorf("tcpstack.ack-ratelimited = %d on an unlimited stack", n)
			}
		})
	}
}

// TestChallengeACKBudget holds the host-wide RFC 5961 budget: at most
// 100 challenge ACKs per virtual second across all of a stack's
// connections, refilled the next second, applied after the per-socket
// limit and only to challenge ACKs.
func TestChallengeACKBudget(t *testing.T) {
	for _, prof := range []Profile{Linux44(), Linux40(), Linux314()} {
		t.Run(prof.Name, func(t *testing.T) {
			sim, _, cli, srv := pair(t, Linux44(), prof)
			var conns []*Conn
			srv.Listen(80, func(c *Conn) { conns = append(conns, c) })
			for i := 0; i < 120; i++ {
				cli.Connect(srvAddr, 80)
			}
			sim.Run(100000)
			if len(conns) != 120 {
				t.Fatalf("accepted %d connections, want 120", len(conns))
			}
			reg := obs.NewRegistry()
			srv.Obs = obs.New(reg, nil)
			answers := 0
			srv.Send = func(*packet.Packet) { answers++ }
			rst := func(sc *Conn) {
				_, rport := sc.RemoteAddr()
				srv.Deliver(packet.NewTCP(cliAddr, rport, srvAddr, 80, packet.FlagRST, sc.RcvNxt().Add(100), 0, nil))
			}
			// Start at the top of a virtual second so every probe below
			// lands in one bucket.
			sim.RunFor(time.Second - sim.Now()%time.Second)
			for _, sc := range conns {
				rst(sc)
			}
			if answers != 100 {
				t.Errorf("one RST on each of 120 connections drew %d challenge ACKs, want 100", answers)
			}
			if n := reg.Value("tcpstack.challenge-ack-limited"); n != 20 {
				t.Errorf("tcpstack.challenge-ack-limited = %d, want 20", n)
			}
			if prof.InvalidRateLimit == 0 {
				// No per-socket limit: one connection alone can spend
				// what is left of the second — nothing.
				answers = 0
				for i := 0; i < 10; i++ {
					rst(conns[0])
				}
				if answers != 0 {
					t.Errorf("spent budget still answered %d", answers)
				}
			}
			// Non-challenge answers do not draw on the budget.
			answers = 0
			_, rport := conns[119].RemoteAddr()
			srv.Deliver(packet.NewTCP(cliAddr, rport, srvAddr, 80, packet.FlagPSH|packet.FlagACK,
				conns[119].RcvNxt(), conns[119].SndNxt().Add(99999), []byte("x")))
			if answers != 1 {
				t.Errorf("data-bearing ack-for-unsent-data after the budget ran out: answered %d", answers)
			}
			// The next second refills it.
			sim.RunFor(time.Second)
			answers = 0
			for i := 0; i < 150; i++ {
				rst(conns[i%len(conns)])
			}
			if answers != 100 {
				t.Errorf("next second: %d challenge ACKs, want 100", answers)
			}
		})
	}
}

// TestSynRecvRetransmitLimit holds a listener's answers to retransmitted
// SYNs to the per-socket ACK-loop limit, as Linux ≥ 4.0's tcp_check_req
// passes them through tcp_oow_rate_limited
// (LINUX_MIB_TCPACKSKIPPEDSYNRECV): one SYN and five retransmissions at
// one instant draw the first SYN/ACK and one retransmitted SYN/ACK from
// Linux 4.4, and another retransmission 500 ms later draws one more.
// Linux 3.14 answers every one. The established connection starts its
// interval afresh, as tcp_create_openreq_child zeroes
// last_oow_ack_time.
func TestSynRecvRetransmitLimit(t *testing.T) {
	for _, tc := range []struct {
		prof       Profile
		atOnce     int // SYN/ACKs for one SYN and five retransmissions
		limitedNow int // of which the limit suppressed
	}{
		{Linux44(), 2, 4},
		{Linux314(), 6, 0},
	} {
		t.Run(tc.prof.Name, func(t *testing.T) {
			sim, _, _, srv := pair(t, Linux44(), tc.prof)
			var sc *Conn
			srv.Listen(80, func(c *Conn) { sc = c })
			reg := obs.NewRegistry()
			srv.Obs = obs.New(reg, nil)
			synacks := 0
			srv.Send = func(p *packet.Packet) {
				if p.TCP.FlagsOnly(packet.FlagSYN | packet.FlagACK) {
					synacks++
				}
			}
			syn := func() *packet.Packet {
				return packet.NewTCP(cliAddr, 40000, srvAddr, 80, packet.FlagSYN, 1000, 0, nil)
			}
			for i := 0; i < 6; i++ {
				srv.Deliver(syn())
			}
			if synacks != tc.atOnce {
				t.Fatalf("one SYN and five retransmissions drew %d SYN/ACKs, want %d", synacks, tc.atOnce)
			}
			if n := reg.Value("tcpstack.ack-ratelimited"); n != uint64(tc.limitedNow) {
				t.Errorf("tcpstack.ack-ratelimited = %d, want %d", n, tc.limitedNow)
			}
			sim.RunFor(500 * time.Millisecond)
			synacks = 0
			srv.Deliver(syn())
			if synacks != 1 {
				t.Fatalf("a retransmission 500 ms later drew %d SYN/ACKs, want 1", synacks)
			}
			if tc.prof.InvalidRateLimit == 0 {
				return
			}
			// Complete the handshake: the established socket may answer
			// a dataless segment at once, although its SYN_RECV interval
			// has not run out.
			srv.Deliver(packet.NewTCP(cliAddr, 40000, srvAddr, 80, packet.FlagACK, 1001, sc.SndNxt(), nil))
			if sc.State() != Established {
				t.Fatalf("state %v after the handshake's ACK", sc.State())
			}
			answers := 0
			srv.Send = func(*packet.Packet) { answers++ }
			srv.Deliver(packet.NewTCP(cliAddr, 40000, srvAddr, 80, packet.FlagACK, 1001, sc.SndNxt().Add(99999), nil))
			if answers != 1 {
				t.Fatalf("the established socket answered %d of 1 dataless ack-for-unsent-data", answers)
			}
		})
	}
}
