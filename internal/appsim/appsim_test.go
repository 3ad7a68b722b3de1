package appsim

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"intango/internal/dnsmsg"
	"intango/internal/dpi"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

func pair(t *testing.T) (*netem.Simulator, *tcpstack.Stack, *tcpstack.Stack) {
	t.Helper()
	sim := netem.NewSimulator(3)
	p := netem.NewChain(sim, 1, netem.Link{}, netem.Link{Latency: time.Millisecond})
	cli := tcpstack.NewStack(cliAddr, tcpstack.Linux44(), sim)
	srv := tcpstack.NewStack(srvAddr, tcpstack.Linux44(), sim)
	cli.AttachClient(p)
	srv.AttachServer(p)
	return sim, cli, srv
}

func TestHTTPServerAndCompletion(t *testing.T) {
	sim, cli, srv := pair(t)
	ServeHTTP(srv, 80)
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(100 * time.Millisecond)
	c.Write(HTTPRequest("example.com", "/index.html"))
	sim.RunFor(time.Second)
	if !bytes.Contains(c.Received(), []byte("200 OK")) {
		t.Fatalf("no response: %q", c.Received())
	}
	if !HTTPResponseComplete(c.Received()) {
		t.Fatal("response should be complete")
	}
	if HTTPResponseComplete([]byte("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")) {
		t.Fatal("short body should be incomplete")
	}
	// The page must not echo the request (no response-censorship bait).
	if bytes.Contains(c.Received(), []byte("index.html")) {
		t.Fatal("response echoes the URI")
	}
}

func TestHTTPServerPipelinedRequests(t *testing.T) {
	sim, cli, srv := pair(t)
	ServeHTTP(srv, 80)
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(100 * time.Millisecond)
	c.Write(HTTPRequest("a.com", "/1"))
	sim.RunFor(time.Second)
	c.Write(HTTPRequest("a.com", "/2"))
	sim.RunFor(time.Second)
	if n := bytes.Count(c.Received(), []byte("200 OK")); n != 2 {
		t.Fatalf("responses = %d, want 2", n)
	}
}

func TestDNSUDPResolver(t *testing.T) {
	sim, cli, srv := pair(t)
	want := packet.AddrFrom4(93, 184, 216, 34)
	ServeDNSUDP(srv, Zone{"example.com": want})
	var got []packet.Addr
	cli.ListenUDP(4000, func(src packet.Addr, sp uint16, payload []byte) {
		m, err := dnsmsg.Decode(payload)
		if err == nil && len(m.Answers) > 0 {
			got = append(got, m.Answers[0].Addr)
		}
	})
	q, _ := dnsmsg.NewQuery(1, "example.com").Encode()
	cli.SendUDP(4000, srvAddr, 53, q)
	q2, _ := dnsmsg.NewQuery(2, "other.org").Encode()
	cli.SendUDP(4000, srvAddr, 53, q2)
	sim.RunFor(time.Second)
	if len(got) != 2 || got[0] != want {
		t.Fatalf("answers = %v", got)
	}
	if got[1] == (packet.Addr{}) {
		t.Fatal("fallback answer empty")
	}
}

func TestDNSTCPResolver(t *testing.T) {
	sim, cli, srv := pair(t)
	want := packet.AddrFrom4(1, 2, 3, 4)
	ServeDNSTCP(srv, Zone{"dropbox.com": want})
	c := cli.Connect(srvAddr, 53)
	sim.RunFor(100 * time.Millisecond)
	q, _ := dnsmsg.NewQuery(9, "dropbox.com").Encode()
	c.Write(dnsmsg.FrameTCP(q))
	sim.RunFor(time.Second)
	msgs, _ := dnsmsg.UnframeTCP(c.Received())
	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	m, err := dnsmsg.Decode(msgs[0])
	if err != nil || len(m.Answers) != 1 || m.Answers[0].Addr != want {
		t.Fatalf("answer = %+v err=%v", m, err)
	}
}

func TestTorHandshakeIsFingerprintable(t *testing.T) {
	hello := TorClientHello()
	if p := dpi.ClassifyClientStream(9001, hello); p != dpi.ProtoTor {
		t.Fatalf("classified %v, want tor", p)
	}
	sim, cli, srv := pair(t)
	ServeTorBridge(srv, 9001)
	c := cli.Connect(srvAddr, 9001)
	sim.RunFor(100 * time.Millisecond)
	c.Write(hello)
	sim.RunFor(time.Second)
	if len(c.Received()) == 0 || c.Received()[0] != 0x16 {
		t.Fatalf("no server hello: %x", c.Received())
	}
	c.Write([]byte("relaycell"))
	sim.RunFor(time.Second)
	if !bytes.Contains(c.Received(), []byte("TORCELL")) {
		t.Fatal("no relay cell echoed")
	}
}

func TestOpenVPNFingerprintAndResponse(t *testing.T) {
	pkt := OpenVPNClientReset()
	if p := dpi.ClassifyClientStream(1194, pkt); p != dpi.ProtoOpenVPN {
		t.Fatalf("classified %v, want openvpn", p)
	}
	sim, cli, srv := pair(t)
	ServeOpenVPN(srv, 1194)
	c := cli.Connect(srvAddr, 1194)
	sim.RunFor(100 * time.Millisecond)
	c.Write(pkt)
	sim.RunFor(time.Second)
	if len(c.Received()) < 3 || c.Received()[2] != 0x40 {
		t.Fatalf("no HARD_RESET_SERVER: %x", c.Received())
	}
}

func TestZoneFallbackDeterministic(t *testing.T) {
	z := Zone{}
	a := z.lookup("some.random.name")
	b := z.lookup("some.random.name")
	if a != b {
		t.Fatal("fallback lookup not deterministic")
	}
	if a == (packet.Addr{}) {
		t.Fatal("fallback empty")
	}
}

func TestHTTPUploadBody(t *testing.T) {
	for _, size := range []int{0, 1, 25, 26, 27, 52, 1000, 64 << 10} {
		req := HTTPUpload("a.com", "/up", size)
		head, body, ok := bytes.Cut(req, []byte("\r\n\r\n"))
		if !ok || len(body) != size {
			t.Fatalf("size %d: body is %d bytes", size, len(body))
		}
		if n, ok := contentLength(head); !ok || n != size {
			t.Fatalf("size %d: Content-Length %d, ok=%v", size, n, ok)
		}
		for i, b := range body {
			if b != 'a'+byte(i%26) {
				t.Fatalf("size %d: body[%d] = %q", size, i, b)
			}
		}
	}
}

func TestHTTPUploadServerAnswersEachUpload(t *testing.T) {
	sim, cli, srv := pair(t)
	ServeHTTP(srv, 80)
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(100 * time.Millisecond)
	for i := 1; i <= 2; i++ {
		c.Write(HTTPUpload("a.com", "/up", 20000))
		sim.RunFor(time.Second)
		if n := bytes.Count(c.Received(), []byte("200 OK")); n != i {
			t.Fatalf("after upload %d: %d responses", i, n)
		}
	}
}

// TestHTTPServerPageThenUpload: one connection carries a GET, then a
// POST upload. The server answers the GET with the page and the POST,
// once its body is in, with "ok" — not with the page at the POST's
// head.
func TestHTTPServerPageThenUpload(t *testing.T) {
	sim, cli, srv := pair(t)
	ServeHTTP(srv, 80)
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(100 * time.Millisecond)
	c.Write(HTTPRequest("a.com", "/"))
	sim.RunFor(time.Second)
	c.Write(HTTPUpload("a.com", "/up", 20000))
	sim.RunFor(time.Second)
	want := string(httpPage) + "HTTP/1.1 200 OK\r\nServer: sim\r\nContent-Length: 2\r\n\r\nok"
	if got := string(c.Received()); got != want {
		t.Fatalf("responses %q, want the page, then ok", got)
	}
}

// TestHTTPUploadServerRejectsMalformedLength is the regression test for
// a panic: a negative Content-Length drove the served offset below
// zero, and the next delivery sliced Received() out of range. A
// negative or non-numeric length is malformed: the server answers 400
// and closes, and later data is ignored.
func TestHTTPUploadServerRejectsMalformedLength(t *testing.T) {
	for _, length := range []string{"-1000", "-1", "banana", "12x", ""} {
		sim, cli, srv := pair(t)
		ServeHTTP(srv, 80)
		c := cli.Connect(srvAddr, 80)
		sim.RunFor(100 * time.Millisecond)
		c.Write([]byte("POST /up HTTP/1.1\r\nHost: a.com\r\nContent-Length: " + length + "\r\n\r\n" +
			"body bytes that follow the head"))
		sim.RunFor(time.Second)
		c.Write(bytes.Repeat([]byte("more"), 500))
		sim.RunFor(time.Second)
		got := c.Received()
		if !bytes.HasPrefix(got, []byte("HTTP/1.1 400 Bad Request\r\n")) || bytes.Contains(got, []byte("200 OK")) {
			t.Fatalf("Content-Length %q: response %q", length, got)
		}
		if c.State() != tcpstack.CloseWait {
			t.Fatalf("Content-Length %q: client state %v, want the server to have closed", length, c.State())
		}
		if HTTPResponseComplete([]byte("HTTP/1.1 200 OK\r\nContent-Length: " + length + "\r\n\r\nabc")) {
			t.Fatalf("Content-Length %q: response reported complete", length)
		}
	}
}

// TestHTTPUploadServerReservesBody: once the server has parsed a
// head, it reserves its receive buffer for the declared body, but
// never more than uploadReserve, so a header declaring a terabyte
// allocates nothing of the kind.
func TestHTTPUploadServerReservesBody(t *testing.T) {
	for _, tc := range []struct {
		length  string
		reserve int
	}{
		{"20000", 20000},
		{"1099511627776", uploadReserve},
	} {
		sim, cli, srv := pair(t)
		ServeHTTP(srv, 80)
		c := cli.Connect(srvAddr, 80)
		sim.RunFor(100 * time.Millisecond)
		c.Write([]byte("POST /up HTTP/1.1\r\nHost: a.com\r\nContent-Length: " + tc.length + "\r\n\r\n"))
		sim.RunFor(time.Second)
		sc, ok := srv.Conn(80, cliAddr, c.LocalPort())
		if !ok {
			t.Fatalf("Content-Length %s: no server connection", tc.length)
		}
		if got := cap(sc.Received()) - len(sc.Received()); got != tc.reserve {
			t.Fatalf("Content-Length %s: reserved %d bytes, want %d", tc.length, got, tc.reserve)
		}
	}
}

// TestAtoiMatchesStrconv holds the Content-Length parser's digit
// reader to strconv.Atoi, which it replaced to read the head in place.
func TestAtoiMatchesStrconv(t *testing.T) {
	for _, v := range []string{"", "0", "-0", "+7", "-12", "42", "007", "1x", " 1", "+", "-",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "99999999999999999999"} {
		n, ok := atoi([]byte(v))
		want, err := strconv.Atoi(v)
		if ok != (err == nil) || (ok && n != want) {
			t.Errorf("atoi(%q) = %d, %v; strconv.Atoi = %d, %v", v, n, ok, want, err)
		}
	}
}
