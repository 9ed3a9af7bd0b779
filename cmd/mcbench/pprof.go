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

// profileFold is CPU profiles' time summed per layer bucket.
type profileFold struct {
	ns      map[string]int64
	total   int64
	samples int
}

// frac returns the layer's share of all profiled CPU time.
func (f profileFold) frac(layer string) float64 {
	if f.total == 0 {
		return 0
	}
	return float64(f.ns[layer]) / float64(f.total)
}

// add decodes a gzipped pprof CPU profile and adds every sample's CPU
// time to one bucket of profileLayers (see layerOf).
func (f *profileFold) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locations {
			for _, fn := range p.locations[id] {
				stack = append(stack, p.strings[p.functions[fn]])
			}
		}
		v := s.values[p.cpuIndex]
		f.ns[layerOf(stack)] += v
		f.total += v
		f.samples++
	}
	return nil
}

// layerBuckets maps a simulator package path to its bucket.
var layerBuckets = func() map[string]string {
	m := map[string]string{}
	for _, l := range profileLayers {
		if !strings.Contains(l, ".") && l != "other" {
			m["cloudmc/internal/"+l] = l
		}
	}
	return m
}()

// gcPrefixes name the runtime's allocation, write-barrier, marking,
// sweeping and scavenging functions. A sample with any of them on its
// stack is memory-management time.
var gcPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.mark", "runtime.scan",
	"runtime.greyobject", "runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.heapBits",
	"runtime.typePointers", "runtime.deductSweepCredit", "runtime.nextFreeFast",
	"runtime.(*gc", "runtime.(*mspan)", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*sweep", "runtime.(*pageAlloc)",
	"runtime.(*scavenger", "runtime.(*wbBuf)", "runtime.(*typePointers)",
}

// callerWork name runtime functions that do their caller's work: memory
// copies and compares, and map operations.
var callerWork = []string{
	"runtime.memmove", "runtime.memclr", "runtime.memequal", "runtime.duff",
	"runtime.cmpbody", "runtime.mapaccess", "runtime.mapassign", "runtime.mapdelete",
	"runtime.memhash", "runtime.aeshash",
}

// layerOf buckets one sample by its stack, leaf first:
//   - runtime.gc if any frame allocates or collects garbage;
//   - else the first frame, walking from the leaf toward the root, that
//     belongs to a simulator package gives the bucket, while standard
//     library frames and the runtime helpers in callerWork are charged to
//     their caller;
//   - runtime.other for any other runtime frame met first (scheduler,
//     clock, futex), and other for any remaining code (this benchmark,
//     unlisted packages).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcPrefixes) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		if l, ok := layerBuckets[pkg]; ok {
			return l
		}
		switch {
		case pkg == "runtime":
			if !hasAnyPrefix(fn, callerWork) {
				return "runtime.other"
			}
		case strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
			// runtime-internal helpers (maps, atomics): charge the caller
		case pkg == "main", strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."), strings.HasPrefix(pkg, "cloudmc/"):
			return "other"
		}
	}
	if len(stack) > 0 && strings.HasPrefix(packageOf(stack[0]), "runtime") {
		return "runtime.other"
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a symbolized Go function name,
// such as cloudmc/internal/memctrl for
// cloudmc/internal/memctrl.(*Controller).Tick.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop type arguments, which may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile is the part of a pprof profile.proto the fold needs.
type profile struct {
	cpuIndex  int // index of the cpu/nanoseconds sample value
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name's string-table index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes an uncompressed profile.proto message.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}, cpuIndex: -1}
	var sampleTypes [][2]int64 // (type, unit) string indices
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s profSample
			err := eachField(msg, func(f int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, v, packed)
				case 2:
					var vs []uint64
					err := appendVarints(&vs, v, packed)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(line, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range sampleTypes {
		if t[0] < int64(len(p.strings)) && p.strings[t[0]] == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("no cpu sample type")
	}
	for _, s := range p.samples {
		if len(s.values) <= p.cpuIndex {
			return nil, errors.New("sample without a cpu value")
		}
		for _, id := range s.locations {
			for _, fn := range p.locations[id] {
				if idx := p.functions[fn]; idx < 0 || idx >= int64(len(p.strings)) {
					return nil, fmt.Errorf("function %d names string %d of %d", fn, idx, len(p.strings))
				}
			}
		}
	}
	return p, nil
}

// eachField calls f for every field of a protobuf message: v holds a
// varint field's value, msg a length-delimited field's bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, f func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			if err := f(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field (v) or packed into one length-delimited field.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
