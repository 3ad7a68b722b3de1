// Package appsim provides the application-layer endpoints the
// experiments run over the simulated network: a plaintext HTTP server
// and client (the Alexa-website stand-ins of §3.3), DNS resolvers over
// UDP and TCP (§7.2), a Tor bridge with its fingerprintable handshake
// (§7.3), and an OpenVPN-over-TCP peer.
package appsim

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"intango/internal/dnsmsg"
	"intango/internal/dpi"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// ServeHTTP installs a minimal HTTP/1.1 server on port. It answers
// every complete request with a 200 page; the page never echoes the
// request (mirroring the §3.3 site selection, which excluded servers
// that copy the URI into the response and so trip response censorship).
func ServeHTTP(stack *tcpstack.Stack, port uint16) {
	stack.Listen(port, func(c *tcpstack.Conn) {
		served := 0
		c.OnData = func([]byte) {
			buf := c.Received()[served:]
			idx := bytes.Index(buf, []byte("\r\n\r\n"))
			if idx < 0 {
				return
			}
			served += idx + 4
			body := "<html><body>it works</body></html>"
			c.Write([]byte(fmt.Sprintf(
				"HTTP/1.1 200 OK\r\nServer: sim\r\nContent-Length: %d\r\n\r\n%s", len(body), body)))
		}
	})
}

// HTTPRequest renders a GET for uri against host.
func HTTPRequest(host, uri string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: intango\r\nAccept: */*\r\n\r\n", uri, host))
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

// uploadReserve caps the receive buffer ServeHTTPUpload reserves for a
// body it has not seen yet, so a header declaring a huge length cannot
// make it allocate; past the cap the buffer doubles as data arrives.
const uploadReserve = 1 << 20

// ServeHTTPUpload installs an HTTP/1.1 server that consumes a POST
// body of the declared Content-Length and answers 200 once the upload
// is complete. It parses each request head once, when its blank line
// arrives, reserves the receive buffer for the body (up to
// uploadReserve), and answers a malformed Content-Length with 400 and
// a close. Like ServeHTTP, the response never echoes the request.
func ServeHTTPUpload(stack *tcpstack.Stack, port uint16) {
	stack.Listen(port, func(c *tcpstack.Conn) {
		// served counts the bytes of answered requests; head and want
		// frame the pending request once its head is parsed (head is
		// zero until then).
		served, head, want := 0, 0, 0
		c.OnData = func([]byte) {
			buf := c.Received()[served:]
			if head == 0 {
				idx := bytes.Index(buf, []byte("\r\n\r\n"))
				if idx < 0 {
					return
				}
				n, ok := contentLength(buf[:idx])
				if !ok {
					c.OnData = nil // answered and closing: ignore the rest
					c.Write([]byte("HTTP/1.1 400 Bad Request\r\nServer: sim\r\nContent-Length: 0\r\n\r\n"))
					c.Close()
					return
				}
				head, want = idx+4, n
				c.Grow(min(want-(len(buf)-head), uploadReserve))
			}
			if len(buf)-head < want {
				return // incomplete upload: keep reading
			}
			served += head + want
			head, want = 0, 0
			c.Write([]byte("HTTP/1.1 200 OK\r\nServer: sim\r\nContent-Length: 2\r\n\r\nok"))
		}
	})
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
	for _, line := range strings.Split(string(head), "\r\n") {
		k, v, found := strings.Cut(line, ":")
		if !found || !strings.EqualFold(strings.TrimSpace(k), "content-length") {
			continue
		}
		var err error
		if n, err = strconv.Atoi(strings.TrimSpace(v)); err != nil || n < 0 {
			return 0, false
		}
	}
	return n, true
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

// ServeHTTPSRedirect installs the §3.3 exclusion case: a site that
// answers every plaintext request with a 301 redirect to its HTTPS
// origin, copying the request URI into the Location header — and with
// it any sensitive keyword, which response-censoring GFW devices can
// then catch.
func ServeHTTPSRedirect(stack *tcpstack.Stack, port uint16, host string) {
	stack.Listen(port, func(c *tcpstack.Conn) {
		served := 0
		c.OnData = func([]byte) {
			buf := c.Received()[served:]
			idx := bytes.Index(buf, []byte("\r\n\r\n"))
			if idx < 0 {
				return
			}
			served += idx + 4
			info, ok := dpi.ParseHTTPRequest(buf[:idx+4])
			uri := "/"
			if ok {
				uri = info.URI
			}
			c.Write([]byte(fmt.Sprintf(
				"HTTP/1.1 301 Moved Permanently\r\nLocation: https://%s%s\r\nContent-Length: 0\r\n\r\n", host, uri)))
		}
	})
}
