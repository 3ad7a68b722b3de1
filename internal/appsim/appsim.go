// Package appsim provides the application-layer endpoints the
// experiments run over the simulated network: a plaintext HTTP server
// and client (the Alexa-website stand-ins of §3.3), DNS resolvers over
// UDP and TCP (§7.2), a Tor bridge with its fingerprintable handshake
// (§7.3), and an OpenVPN-over-TCP peer.
package appsim

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"intango/internal/dnsmsg"
	"intango/internal/dpi"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// ServeHTTP's answers, rendered once: the page, an upload's 2-byte
// acknowledgement, and the refusal of a malformed Content-Length.
var (
	httpPage = func() []byte {
		body := "<html><body>it works</body></html>"
		return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nServer: sim\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	}()
	httpUploaded   = []byte("HTTP/1.1 200 OK\r\nServer: sim\r\nContent-Length: 2\r\n\r\nok")
	httpBadRequest = []byte("HTTP/1.1 400 Bad Request\r\nServer: sim\r\nContent-Length: 0\r\n\r\n")
)

// uploadReserve caps the receive buffer the server reserves for a body
// it has not seen yet, so a header declaring a huge length cannot make
// it allocate; past the cap the buffer doubles as data arrives.
const uploadReserve = 1 << 20

// ServeHTTP installs a minimal HTTP/1.1 server on port. It parses each
// request head once, when its blank line arrives, and frames the body
// by its Content-Length: a request without a body gets a 200 page, an
// upload (as the goodput experiments send) a 2-byte "ok" once its body
// is in, for which it reserves the receive buffer (up to
// uploadReserve), and a malformed Content-Length a 400 and a close. No
// answer echoes the request (mirroring the §3.3 site selection, which
// excluded servers that copy the URI into the response and so trip
// response censorship). Once a connection has answered a request, the
// client's FIN closes the server's side too, so a served connection
// does not linger in CLOSE_WAIT. A FIN that arrives before any request
// (an evasion strategy's insertion can reach the server first) leaves
// it open.
func ServeHTTP(stack *tcpstack.Stack, port uint16) {
	new(HTTPServer).Serve(stack, port)
}

// HTTPServer is ServeHTTP's server. A world rebuilt for each trial
// keeps one and serves each trial's stack with it (Serve), reusing the
// state of the connections it served before.
type HTTPServer struct {
	stack  *tcpstack.Stack
	accept tcpstack.Acceptor // open, bound once
	conns  netem.Spares[httpConn]
}

// httpConn is one served connection: the request bytes answered so
// far, the framing of the pending request once its head is parsed
// (head, its length with the blank line, is zero until then; want is
// its body's), and its callbacks, bound once.
type httpConn struct {
	c          *tcpstack.Conn
	served     int
	head, want int
	onData     func([]byte)
	onState    func(from, to tcpstack.State)
}

// Serve installs the server on port of stack, as ServeHTTP does. It
// takes back the connection state of the stack it served before,
// which is dead: while stack's simulator lends, the connections it
// accepts reuse it.
func (h *HTTPServer) Serve(stack *tcpstack.Stack, port uint16) {
	h.conns.Rewind()
	h.stack = stack
	if h.accept == nil {
		h.accept = h.open
	}
	stack.Listen(port, h.accept)
}

// open starts serving an accepted connection.
func (h *HTTPServer) open(c *tcpstack.Conn) {
	hc := h.conns.Get(h.stack.Sim.Lends())
	if hc.onData == nil {
		hc.onData, hc.onState = hc.data, hc.state
	}
	hc.c, hc.served, hc.head, hc.want = c, 0, 0, 0
	c.OnData = hc.onData
}

// data answers the pending request once it is complete: its head, then
// the body its head declares.
func (hc *httpConn) data([]byte) {
	c := hc.c
	buf := c.Received()[hc.served:]
	if hc.head == 0 {
		idx := bytes.Index(buf, []byte("\r\n\r\n"))
		if idx < 0 {
			return
		}
		n, ok := contentLength(buf[:idx])
		if !ok {
			c.OnData = nil // answered and closing: ignore the rest
			c.Write(httpBadRequest)
			c.Close()
			return
		}
		hc.head, hc.want = idx+4, n
		if n > 0 {
			c.Grow(min(n-(len(buf)-hc.head), uploadReserve))
		}
	}
	if len(buf)-hc.head < hc.want {
		return // incomplete body: keep reading
	}
	if hc.served == 0 {
		c.OnStateChange = hc.onState
	}
	hc.served += hc.head + hc.want
	answer := httpPage
	if hc.want > 0 {
		answer = httpUploaded
	}
	hc.head, hc.want = 0, 0
	c.Write(answer)
}

// state closes a served connection at the client's FIN.
func (hc *httpConn) state(_, to tcpstack.State) {
	if to == tcpstack.CloseWait {
		hc.c.Close()
	}
}

// HTTPRequest renders a GET for uri against host.
func HTTPRequest(host, uri string) []byte { return AppendHTTPRequest(nil, host, uri) }

// AppendHTTPRequest appends HTTPRequest(host, uri) to dst.
func AppendHTTPRequest(dst []byte, host, uri string) []byte {
	dst = append(append(append(dst, "GET "...), uri...), " HTTP/1.1\r\nHost: "...)
	return append(append(dst, host...), "\r\nUser-Agent: intango\r\nAccept: */*\r\n\r\n"...)
}

// HTTPUpload renders a POST of size deterministic body bytes against
// host — the client half of the goodput experiments, which measure how
// much of a constrained uplink an evasion strategy leaves for data.
func HTTPUpload(host, uri string, size int) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: intango\r\nContent-Length: %d\r\n\r\n", uri, host, size)
	req := make([]byte, len(head)+size)
	body := req[copy(req, head):]
	// The body repeats the alphabet: write it once, then keep doubling
	// the written prefix (a multiple of 26 bytes) into the rest.
	n := copy(body, "abcdefghijklmnopqrstuvwxyz")
	for n < size {
		n += copy(body[n:], body[:n])
	}
	return req
}

// HTTPResponseComplete reports whether buf contains a complete HTTP
// response (headers plus declared body). A negative or non-numeric
// Content-Length never completes.
func HTTPResponseComplete(buf []byte) bool {
	head, rest, ok := bytes.Cut(buf, []byte("\r\n\r\n"))
	if !ok {
		return false
	}
	want, ok := contentLength(head)
	return ok && len(rest) >= want
}

// contentLength returns the Content-Length an HTTP head declares (the
// last one wins; zero when absent). ok is false when a value is
// negative or not a decimal number.
func contentLength(head []byte) (n int, ok bool) {
	for len(head) > 0 {
		var line []byte
		line, head, _ = bytes.Cut(head, []byte("\r\n"))
		k, v, found := bytes.Cut(line, []byte(":"))
		if !found || !bytes.EqualFold(bytes.TrimSpace(k), []byte("content-length")) {
			continue
		}
		if n, ok = atoi(bytes.TrimSpace(v)); !ok || n < 0 {
			return 0, false
		}
	}
	return n, true
}

// atoi is strconv.Atoi on bytes, without converting them to a string:
// an optional sign and decimal digits that fit an int.
func atoi(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if c < '0' || c > '9' || n > (limit-d)/10 {
			return 0, false
		}
		n = 10*n + d
	}
	if neg {
		return -int(n), true
	}
	return int(n), true
}

// Zone maps domain names to addresses for the resolver apps.
type Zone map[string]packet.Addr

// lookup resolves name in the zone, falling back to a deterministic
// synthetic address so every query gets an answer.
func (z Zone) lookup(name string) packet.Addr {
	if a, ok := z[strings.ToLower(name)]; ok {
		return a
	}
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return packet.AddrFrom4(198, 18, byte(h>>8), byte(h))
}

// ServeDNSUDP installs a UDP resolver on port 53.
func ServeDNSUDP(stack *tcpstack.Stack, zone Zone) {
	stack.ListenUDP(53, func(src packet.Addr, srcPort uint16, payload []byte) {
		q, err := dnsmsg.Decode(payload)
		if err != nil || len(q.Questions) == 0 {
			return
		}
		resp := dnsmsg.NewResponse(q, zone.lookup(q.Questions[0].Name), 300)
		b, err := resp.Encode()
		if err != nil {
			return
		}
		stack.SendUDP(53, src, srcPort, b)
	})
}

// ServeDNSTCP installs a DNS-over-TCP resolver on port 53.
func ServeDNSTCP(stack *tcpstack.Stack, zone Zone) {
	stack.Listen(53, func(c *tcpstack.Conn) {
		consumed := 0
		c.OnData = func([]byte) {
			msgs, n := dnsmsg.UnframeTCP(c.Received()[consumed:])
			consumed += n
			for _, raw := range msgs {
				q, err := dnsmsg.Decode(raw)
				if err != nil || len(q.Questions) == 0 {
					continue
				}
				resp := dnsmsg.NewResponse(q, zone.lookup(q.Questions[0].Name), 300)
				b, err := resp.Encode()
				if err != nil {
					continue
				}
				c.Write(dnsmsg.FrameTCP(b))
			}
		}
	})
}

// TorClientHello returns the fingerprintable TLS ClientHello the
// simulated Tor client opens with — carrying the distinctive cipher
// list the GFW fingerprints (Winter & Lindskog 2012).
func TorClientHello() []byte {
	hello := []byte{0x16, 3, 1, 0, 60, 0x01, 0, 0, 56, 3, 3}
	hello = append(hello, bytes.Repeat([]byte{0x5a}, 16)...)
	return append(hello, dpi.TorCipherMarker...)
}

// ServeTorBridge installs a Tor bridge endpoint: it answers a TLS
// ClientHello with a ServerHello-shaped blob and thereafter echoes
// cell-sized chunks, enough to exercise a long-lived circuit.
func ServeTorBridge(stack *tcpstack.Stack, port uint16) {
	stack.Listen(port, func(c *tcpstack.Conn) {
		greeted := false
		c.OnData = func(data []byte) {
			if !greeted {
				greeted = true
				srvHello := []byte{0x16, 3, 3, 0, 10, 0x02, 0, 0, 6, 3, 3, 0, 0, 0, 0}
				c.Write(srvHello)
				return
			}
			// Relay acknowledgment: echo a fixed-size cell.
			cell := make([]byte, 64)
			copy(cell, "TORCELL")
			c.Write(cell)
		}
	})
}

// ServeObfsBridge installs a probe-resistant obfuscated bridge
// (ScrambleSuit-style, Winter & Lindskog's countermeasure): to anything
// that cannot complete the out-of-band-keyed handshake — an active
// prober replaying a vanilla Tor ClientHello — it answers an opaque
// non-TLS blob, so the prober never sees the ServerHello it confirms
// on. Established clients then carry cells as usual.
func ServeObfsBridge(stack *tcpstack.Stack, port uint16) {
	stack.Listen(port, func(c *tcpstack.Conn) {
		greeted := false
		c.OnData = func(data []byte) {
			if !greeted {
				greeted = true
				// Uniformly random-looking bytes: first byte is not a TLS
				// handshake record, so probe confirmation fails.
				blob := bytes.Repeat([]byte{0x7f, 0x3c, 0x91, 0xe8}, 8)
				c.Write(blob)
				return
			}
			cell := make([]byte, 64)
			copy(cell, "OBFSCELL")
			c.Write(cell)
		}
	})
}

// OpenVPNClientReset returns the P_CONTROL_HARD_RESET_CLIENT_V2 opening
// of an OpenVPN-over-TCP session.
func OpenVPNClientReset() []byte {
	pkt := []byte{0x00, 0x2a, 0x38}
	return append(pkt, bytes.Repeat([]byte{0x11}, 42)...)
}

// ServeOpenVPN installs an OpenVPN-over-TCP responder.
func ServeOpenVPN(stack *tcpstack.Stack, port uint16) {
	stack.Listen(port, func(c *tcpstack.Conn) {
		c.OnData = func([]byte) {
			// P_CONTROL_HARD_RESET_SERVER_V2 (opcode 8).
			resp := []byte{0x00, 0x1a, 0x40}
			resp = append(resp, bytes.Repeat([]byte{0x22}, 26)...)
			c.Write(resp)
		}
	})
}
