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

// cpuLayers are the packages CPU samples are attributed to, named as
// the per-layer metrics name them. A sample is charged to the innermost
// frame in one of these packages, so allocation and write-barrier time
// lands on the layer that caused it; a sample with no such frame (GC
// workers, the scheduler) goes to "runtime". Frames of other internal
// packages (geom, packet, metrics, ...) are skipped, which charges them
// to their calling layer.
var cpuLayers = []string{
	"sim", "radio", "mac", "forwarding", "flow",
	"core", "dissemination", "measure",
	"topology", "clique", "routing", "maxminref",
	"obs", "span",
}

const internalPrefix = "gmp/internal/"

// layerOf maps a function name to its layer, or "" when the function is
// in none of cpuLayers.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return ""
	}
	pkg := rest[:end]
	for _, l := range cpuLayers {
		if l == pkg {
			return pkg
		}
	}
	return ""
}

// layerSamples counts CPU samples per layer across profiles.
type layerSamples map[string]int64

func (ls layerSamples) total() int64 {
	var n int64
	for _, v := range ls {
		n += v
	}
	return n
}

// addProfile decodes one gzipped pprof CPU profile (as written by
// runtime/pprof) and adds its samples to ls.
func (ls layerSamples) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, locID := range s.locations { // leaf first
			for _, fnID := range p.locations[locID] { // innermost inlined frame first
				if l := layerOf(p.strings[p.functions[fnID]]); l != "" {
					layer = l
					break frames
				}
			}
		}
		ls[layer] += s.count
	}
	return nil
}

// profile is the subset of the pprof protobuf the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> name's string-table index
	strings   []string
}

type profSample struct {
	locations []uint64
	count     int64
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fieldProfileSample:
			var s profSample
			first := true
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fieldSampleLocation:
					s.locations = appendVarints(s.locations, wire, v, data)
				case fieldSampleValue:
					// The first value is the sample count.
					if vals := appendVarints(nil, wire, v, data); first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(data, func(num int, wire int, v uint64, data []byte) error {
						if num == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fieldProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == wireVarint {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed value, data a length-delimited payload.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
