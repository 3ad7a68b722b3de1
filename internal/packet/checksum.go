package packet

import "encoding/binary"

// Checksum computes the 16-bit one's-complement Internet checksum
// (RFC 1071) over data, starting from an initial partial sum. The
// initial sum lets callers fold in a pseudo-header before the payload.
func Checksum(data []byte, initial uint32) uint16 {
	return foldChecksum(initial + regionSum(data))
}

// pseudoHeaderSum folds the IPv4 pseudo-header for proto and an L4
// length into a partial checksum accumulator.
func pseudoHeaderSum(src, dst Addr, proto uint8, l4len int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}

// foldChecksum folds a partial sum into the final one's-complement
// checksum value.
func foldChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// regionSum computes the partial checksum of a byte region that begins
// at an even offset of the enclosing datagram (all header lengths here
// are 4-byte multiples, so payloads and option blocks qualify). An odd
// trailing byte is padded high, as in RFC 1071.
//
// It adds 32-bit words, two per 8-byte load, then the tail's 16-bit
// words, and folds the total with end-around carry. Since 2^16 ≡ 1 (mod 0xffff), the result is
// congruent to the sum of the region's 16-bit words, at most 0xffff,
// and zero exactly when that sum is — all foldChecksum can tell apart.
func regionSum(data []byte) uint32 {
	var sum uint64
	for ; len(data) >= 8; data = data[8:] {
		w := binary.BigEndian.Uint64(data)
		sum += w>>32 + w&0xffffffff
	}
	for ; len(data) >= 2; data = data[2:] {
		sum += uint64(binary.BigEndian.Uint16(data))
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return uint32(sum)
}
