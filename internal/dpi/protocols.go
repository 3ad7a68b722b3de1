package dpi

import (
	"bytes"
	"encoding/binary"
	"strings"
)

// Protocol is an application protocol the classifier recognizes.
type Protocol int

// Recognized protocols.
const (
	ProtoUnknown Protocol = iota
	ProtoHTTP
	ProtoDNSTCP
	ProtoTLS
	ProtoTor
	ProtoOpenVPN
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtoHTTP:
		return "http"
	case ProtoDNSTCP:
		return "dns-tcp"
	case ProtoTLS:
		return "tls"
	case ProtoTor:
		return "tor"
	case ProtoOpenVPN:
		return "openvpn"
	default:
		return "unknown"
	}
}

var httpMethods = []string{"GET ", "POST ", "HEAD ", "PUT ", "DELETE ", "OPTIONS ", "CONNECT "}

// ClassifyHorizon is how many leading bytes ClassifyClientStream can
// decide ProtoUnknown from: the longest HTTP method with its space.
// The TLS check reads 6 bytes and the OpenVPN check 3, and the Tor
// check runs only on a recognised ClientHello. So a stream of at least
// ClassifyHorizon bytes that classifies as unknown stays unknown
// however it continues, as the GFW names a flow from its first bytes.
const ClassifyHorizon = 8

// ClassifyClientStream identifies the application protocol from the
// first bytes a client sends, together with the destination port —
// mirroring how DPI boxes pick a parser.
func ClassifyClientStream(dstPort uint16, prefix []byte) Protocol {
	if dstPort == 53 {
		return ProtoDNSTCP
	}
	for _, m := range httpMethods {
		if len(prefix) >= len(m) && string(prefix[:len(m)]) == m {
			return ProtoHTTP
		}
	}
	if isTLSClientHello(prefix) {
		if hasTorCipherFingerprint(prefix) {
			return ProtoTor
		}
		return ProtoTLS
	}
	if isOpenVPN(prefix) {
		return ProtoOpenVPN
	}
	return ProtoUnknown
}

// HTTPRequestInfo is what the GFW extracts from a plaintext request.
type HTTPRequestInfo struct {
	Method string
	URI    string
	Host   string
}

// ParseHTTPRequest extracts method, URI and Host from a plaintext HTTP
// request head. It is forgiving: it works on partial requests as long
// as the request line is complete.
func ParseHTTPRequest(data []byte) (HTTPRequestInfo, bool) {
	var info HTTPRequestInfo
	line, rest, found := bytes.Cut(data, []byte("\r\n"))
	if !found {
		return info, false
	}
	parts := strings.SplitN(string(line), " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return info, false
	}
	info.Method, info.URI = parts[0], parts[1]
	for {
		var hline []byte
		hline, rest, found = bytes.Cut(rest, []byte("\r\n"))
		if len(hline) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(hline, []byte(":")); ok {
			if strings.EqualFold(string(bytes.TrimSpace(k)), "host") {
				info.Host = string(bytes.TrimSpace(v))
			}
		}
		if !found {
			break
		}
	}
	return info, true
}

// DNSTCPQueryName extracts the first query name from a DNS-over-TCP
// stream prefix (2-byte length prefix, then a DNS message).
func DNSTCPQueryName(data []byte) (string, bool) {
	if len(data) < 2 {
		return "", false
	}
	msgLen := int(binary.BigEndian.Uint16(data))
	if msgLen < 12 || len(data) < 2+12 {
		return "", false
	}
	msg := data[2:]
	if msgLen < len(msg) {
		msg = msg[:msgLen]
	}
	return dnsQueryName(msg)
}

// DNSUDPQueryName extracts the first query name from a raw UDP DNS
// message.
func DNSUDPQueryName(data []byte) (string, bool) {
	return dnsQueryName(data)
}

func dnsQueryName(msg []byte) (string, bool) {
	if len(msg) < 12 {
		return "", false
	}
	qd := binary.BigEndian.Uint16(msg[4:])
	if qd == 0 {
		return "", false
	}
	var labels []string
	p := 12
	for {
		if p >= len(msg) {
			return "", false
		}
		n := int(msg[p])
		if n == 0 {
			break
		}
		if n >= 0xc0 { // compression pointer: not expected in a query
			return "", false
		}
		p++
		if p+n > len(msg) {
			return "", false
		}
		labels = append(labels, string(msg[p:p+n]))
		p += n
	}
	if len(labels) == 0 {
		return "", false
	}
	return strings.Join(labels, "."), true
}

// TLS record/handshake constants.
const (
	tlsRecordHandshake = 0x16
	tlsClientHello     = 0x01
)

func isTLSClientHello(data []byte) bool {
	return len(data) >= 6 &&
		data[0] == tlsRecordHandshake &&
		data[1] == 3 && // TLS major version
		data[5] == tlsClientHello
}

// TorCipherMarker is the byte string our simulated Tor client embeds in
// its ClientHello cipher-suite region. The live GFW fingerprints Tor by
// its distinctive cipher list (Winter & Lindskog 2012); the simulated
// client reproduces a distinctive, fingerprintable handshake the same
// way.
var TorCipherMarker = []byte{0xc0, 0x2b, 0xc0, 0x2f, 0x00, 0x9e, 0xcc, 0x14, 0xcc, 0x13}

func hasTorCipherFingerprint(data []byte) bool {
	return bytes.Contains(data, TorCipherMarker)
}

// isOpenVPN recognizes an OpenVPN-over-TCP session start: a 2-byte
// length prefix followed by a P_CONTROL_HARD_RESET_CLIENT_V2 opcode
// (0x38 = opcode 7 << 3).
func isOpenVPN(data []byte) bool {
	if len(data) < 3 {
		return false
	}
	plen := int(binary.BigEndian.Uint16(data))
	return plen >= 14 && data[2] == 0x38
}
