package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile the standard library writes (a gzipped
// profile.proto) with no dependency beyond the standard library, and
// attributes every sample to one layer of the simulator.

// cpuLayers are the layers a sample can be attributed to: a package under
// mosquitonet/internal, background garbage collection, or the rest.
func cpuLayers() []string {
	return []string{"sim", "link", "arp", "ip", "bufpool", "pipeline", "stack", "tunnel", "mip",
		"transport", "app", "metrics", "trace", "runtime.gc", "other"}
}

const internalPrefix = "mosquitonet/internal/"

// layerOf returns the layer a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range cpuLayers() {
		if l == rest {
			return l
		}
	}
	return "other" // an internal package that is not a datapath layer (dhcp, stats, scenario, ...)
}

// isBackgroundGC reports whether fn roots a background GC goroutine.
func isBackgroundGC(fn string) bool {
	return fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// isFormatting reports whether fn is a String method of a simulator type.
// Nothing on the data path formats text except to feed the packet log and
// the tracer, whichever layer the call sits in.
func isFormatting(fn string) bool {
	return strings.HasPrefix(fn, internalPrefix) && strings.HasSuffix(fn, ".String")
}

// attributeStack picks the layer of one sample from its frames, innermost
// first: the innermost frame inside mosquitonet/internal names the layer
// (so allocation and GC assists count against the layer that allocated),
// unless that frame or its caller is a String method, which is telemetry
// whatever package it lives in: link.HWAddr.String and ip.Packet.String are
// a fifth of campus_app's CPU, spent for the packet log. A stack with no
// internal frame is background GC or other.
func attributeStack(frames []string) string {
	for i, fn := range frames {
		l := layerOf(fn)
		if l == "" {
			continue
		}
		if isFormatting(fn) || (i+1 < len(frames) && isFormatting(frames[i+1])) {
			return "metrics"
		}
		return l
	}
	for _, fn := range frames {
		if isBackgroundGC(fn) {
			return "runtime.gc"
		}
	}
	return "other"
}

// attributeProfile returns each layer's share of the profile's samples,
// and the sample count.
func attributeProfile(gz []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		frames := make([]string, 0, len(s.locations))
		for _, id := range s.locations {
			for _, f := range p.locFuncs[id] {
				frames = append(frames, p.funcNames[f])
			}
		}
		byLayer[attributeStack(frames)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers() {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		}
	}
	return shares, total, nil
}

// cpuProfile is the part of a profile.proto the attribution needs.
type cpuProfile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost inlined first
	funcNames map[uint64]string   // function id -> name
}

type profSample struct {
	locations []uint64 // leaf first
	count     int64    // the first sample value: the sample count
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile is not gzipped: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	// The string table follows the functions that index it, so function
	// names are kept as indices until the walk is over.
	var strs []string
	type fn struct {
		id   uint64
		name int
	}
	var fns []fn
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var values []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, b)
				case 2:
					values = appendVarints(values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // function
			var f fn
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					f.id = v
				case 2:
					f.name = int(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fns = append(fns, f)
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fns {
		if f.name < 0 || f.name >= len(strs) {
			return nil, fmt.Errorf("function %d names string %d of %d", f.id, f.name, len(strs))
		}
		p.funcNames[f.id] = strs[f.name]
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d not supported", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's element(s): packed
// holds many when the field was length-delimited, else v is the one.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
