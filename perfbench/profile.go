package main

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough to attribute CPU samples to the repository's
// layers with nothing outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuSample is one profile sample: its stack as function names, leaf
// first with inlined frames expanded, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// protoField is one decoded protobuf field: a varint lands in v, a
// length-delimited payload in b.
type protoField struct {
	num, wire int
	v         uint64
	b         []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

func readVarint(buf []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(buf) && i < 10; i++ {
		v |= uint64(buf[i]&0x7f) << (7 * uint(i))
		if buf[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// forEachField walks the top-level fields of one protobuf message.
func forEachField(msg []byte, fn func(protoField) error) error {
	for len(msg) > 0 {
		key, n, err := readVarint(msg)
		if err != nil {
			return err
		}
		msg = msg[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = readVarint(msg); err != nil {
				return err
			}
			msg = msg[n:]
		case 1, 5:
			width := 8
			if f.wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errTruncated
			}
			msg = msg[width:]
		case 2:
			l, n, err := readVarint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if uint64(len(msg)) < l {
				return errTruncated
			}
			f.b, msg = msg[:l], msg[l:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated integer field, packed or not.
func appendUints(into []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return into, err
		}
		into = append(into, v)
		b = b[n:]
	}
	return into, nil
}

// parseCPUProfile decodes a CPU profile as runtime/pprof writes it.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples    []rawSample
		strs       []string
		valueUnits []uint64                // sample_type unit string indexes
		funcName   = map[uint64]uint64{}   // function id -> name string index
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = forEachField(raw, func(f protoField) error {
		switch f.num {
		case 1: // sample_type: ValueType{type, unit}
			var unit uint64
			err := forEachField(f.b, func(g protoField) error {
				if g.num == 2 {
					unit = g.v
				}
				return nil
			})
			valueUnits = append(valueUnits, unit)
			return err
		case 2: // sample: {location_id, value, label}
			var s rawSample
			err := forEachField(f.b, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = appendUints(s.locs, g)
				case 2:
					s.values, err = appendUints(s.values, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id, mapping_id, address, line{function_id, line}}
			var id uint64
			var fns []uint64
			err := forEachField(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					return forEachField(g.b, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: {id, name, system_name, filename, start_line}
			var id, name uint64
			err := forEachField(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	nanos := -1
	for i, u := range valueUnits {
		if str(u) == "nanoseconds" {
			nanos = i
		}
	}
	if nanos < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if nanos >= len(s.values) {
			continue
		}
		cs := cpuSample{nanos: int64(s.values[nanos])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcName[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// packageOf returns the import path of a qualified Go function name:
// "intango/internal/netem.(*Path).send" -> "intango/internal/netem".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isGC reports whether a stack belongs to the garbage collector's
// background workers rather than to the code that allocated.
func isGC(stack []string) bool {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return true
		}
	}
	return false
}

// attribute sums CPU time by the innermost repository package on each
// stack, so a package's time includes the standard-library and runtime
// work it calls (allocation, map lookups, copies, encoding) but not the
// repository packages it calls in turn. Stacks with no repository frame
// count as "gc" (collector workers) or "runtime" (scheduler, timers,
// syscalls, net/http plumbing).
func attribute(samples []cpuSample) (byPkg map[string]int64, total int64) {
	byPkg = map[string]int64{}
	for _, s := range samples {
		total += s.nanos
		key := "runtime"
		if isGC(s.stack) {
			key = "gc"
		} else {
			for _, fn := range s.stack {
				if strings.HasPrefix(fn, "intango/") || strings.HasPrefix(fn, "main.") {
					key = packageOf(fn)
					break
				}
			}
		}
		byPkg[key] += s.nanos
	}
	return byPkg, total
}

// formatAttribution renders the per-package split, largest first.
func formatAttribution(byPkg map[string]int64, total int64) string {
	pkgs := make([]string, 0, len(byPkg))
	for k := range byPkg {
		pkgs = append(pkgs, k)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if byPkg[pkgs[i]] != byPkg[pkgs[j]] {
			return byPkg[pkgs[i]] > byPkg[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	var b strings.Builder
	for _, p := range pkgs {
		fmt.Fprintf(&b, "  %6.2f%%  %10.1f ms  %s\n",
			100*float64(byPkg[p])/float64(max(total, 1)), float64(byPkg[p])/1e6, p)
	}
	return b.String()
}
