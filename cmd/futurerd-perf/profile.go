package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file reads the profiles runtime/pprof writes (gzipped protocol
// buffers, the profile.proto schema) with the standard library alone, so
// the traced pass can print per-layer times without go tool pprof. It
// decodes only the fields the aggregation needs.

// layers are the parts of a run that CPU self time is split into: the
// detector's packages (core and ds together), the program being checked,
// and the Go runtime.
var layers = []string{"detect", "event", "core", "shadow", "trace", "program", "runtime"}

// profile is a decoded pprof profile, reduced to one sample type.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	labels map[string]string
	value  int64
}

// parseProfile decodes a profile and keeps, from each sample, the value of
// sampleType ("cpu" for CPU profiles, "delay" for block profiles).
func parseProfile(data []byte, sampleType string) (*profile, error) {
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // string-table indices of key and value
	}
	var (
		types     [][]byte // sample_type messages, decoded once strings are known
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	err := forFields(data, func(num int, typ int, b *pbuf) error {
		switch num {
		case 1: // sample_type
			msg, err := b.bytes(typ)
			types = append(types, msg)
			return err
		case 2: // sample
			msg, err := b.bytes(typ)
			if err != nil {
				return err
			}
			var s rawSample
			err = forFields(msg, func(num int, typ int, b *pbuf) error {
				switch num {
				case 1:
					return b.varints(typ, &s.locs)
				case 2:
					return b.varints(typ, &s.values)
				case 3:
					lbl, err := b.bytes(typ)
					if err != nil {
						return err
					}
					var kv [2]uint64
					err = forFields(lbl, func(num int, typ int, b *pbuf) error {
						if num == 1 || num == 2 {
							v, err := b.varint()
							kv[num-1] = v
							return err
						}
						return b.skip(typ)
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return b.skip(typ)
			})
			samples = append(samples, s)
			return err
		case 4: // location
			msg, err := b.bytes(typ)
			if err != nil {
				return err
			}
			var id uint64
			var fns []uint64
			err = forFields(msg, func(num int, typ int, b *pbuf) error {
				switch num {
				case 1:
					v, err := b.varint()
					id = v
					return err
				case 4: // line: inlined callees come before their caller
					line, err := b.bytes(typ)
					if err != nil {
						return err
					}
					return forFields(line, func(num int, typ int, b *pbuf) error {
						if num == 1 {
							v, err := b.varint()
							fns = append(fns, v)
							return err
						}
						return b.skip(typ)
					})
				}
				return b.skip(typ)
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			msg, err := b.bytes(typ)
			if err != nil {
				return err
			}
			var id, name uint64
			err = forFields(msg, func(num int, typ int, b *pbuf) error {
				switch num {
				case 1:
					v, err := b.varint()
					id = v
					return err
				case 2:
					v, err := b.varint()
					name = v
					return err
				}
				return b.skip(typ)
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			s, err := b.bytes(typ)
			strs = append(strs, string(s))
			return err
		}
		return b.skip(typ)
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

	idx := -1
	for i, msg := range types {
		err := forFields(msg, func(num int, typ int, b *pbuf) error {
			if num == 1 {
				v, err := b.varint()
				if str(v) == sampleType {
					idx = i
				}
				return err
			}
			return b.skip(typ)
		})
		if err != nil {
			return nil, err
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile has no %q samples", sampleType)
	}
	p := &profile{samples: make([]profSample, 0, len(samples))}
	for _, s := range samples {
		if idx >= len(s.values) {
			return nil, errors.New("sample is missing values")
		}
		ps := profSample{value: int64(s.values[idx]), labels: map[string]string{}}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// byLayer sums sample values by the value of the given label and by the
// layer of each sample's leaf frame.
func (p *profile) byLayer(label string) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for _, s := range p.samples {
		l := s.labels[label]
		if out[l] == nil {
			out[l] = map[string]int64{}
		}
		out[l][layerOf(s.stack)] += s.value
	}
	return out
}

// total sums the values of the samples whose stack satisfies keep.
func (p *profile) total(keep func(stack []string) bool) int64 {
	var n int64
	for _, s := range p.samples {
		if keep(s.stack) {
			n += s.value
		}
	}
	return n
}

// layerOf names the layer a sample's time belongs to: the package of its
// leaf frame, where a leaf in library code (a map lookup or memmove in the
// runtime, compress/flate under the trace decoder) is charged to the
// nearest futurerd frame that called it. Memory management stays with the
// runtime layer: allocation, GC work and write barriers, as does any
// sample with no futurerd frame at all (the scheduler, GC workers).
func layerOf(stack []string) string {
	if slices.ContainsFunc(stack, isMemoryManagement) {
		return "runtime"
	}
	for _, fn := range stack {
		if pkg := pkgOf(fn); pkg == "main" || pkg == "futurerd" || strings.HasPrefix(pkg, "futurerd/") {
			return futurerdLayer(pkg)
		}
	}
	return "runtime"
}

func isMemoryManagement(fn string) bool {
	for _, p := range []string{"runtime.mallocgc", "runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// futurerdLayer maps a package of this module to its layer. Packages with
// no layer of their own (the public API, the workloads, this command) are
// the program being checked.
func futurerdLayer(pkg string) string {
	switch strings.TrimPrefix(pkg, "futurerd/internal/") {
	case "detect", "faultinject":
		return "detect"
	case "event":
		return "event"
	case "core", "ds", "graph":
		return "core"
	case "shadow":
		return "shadow"
	case "trace":
		return "trace"
	}
	return "program"
}

// pkgOf returns the import path of a function's package, from a symbol
// such as "futurerd/internal/shadow.(*History).readWordSlow" or
// "futurerd.(*Array[go.shape.int32]).Get".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// pbuf decodes protocol-buffer wire format.
type pbuf struct{ b []byte }

func forFields(msg []byte, f func(num int, typ int, b *pbuf) error) error {
	b := &pbuf{msg}
	for len(b.b) > 0 {
		key, err := b.varint()
		if err != nil {
			return err
		}
		if err := f(int(key>>3), int(key&7), b); err != nil {
			return err
		}
	}
	return nil
}

var errTruncated = errors.New("truncated protocol buffer")

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(b.b) == 0 {
			return 0, errTruncated
		}
		c := b.b[0]
		b.b = b.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflows 64 bits")
}

// bytes reads a length-delimited field.
func (b *pbuf) bytes(typ int) ([]byte, error) {
	if typ != 2 {
		return nil, fmt.Errorf("wire type %d, want 2", typ)
	}
	n, err := b.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b.b)) {
		return nil, errTruncated
	}
	out := b.b[:n]
	b.b = b.b[n:]
	return out, nil
}

// varints appends a repeated integer field, packed or not.
func (b *pbuf) varints(typ int, dst *[]uint64) error {
	if typ == 0 {
		v, err := b.varint()
		*dst = append(*dst, v)
		return err
	}
	packed, err := b.bytes(typ)
	if err != nil {
		return err
	}
	sub := &pbuf{packed}
	for len(sub.b) > 0 {
		v, err := sub.varint()
		if err != nil {
			return err
		}
		*dst = append(*dst, v)
	}
	return nil
}

func (b *pbuf) skip(typ int) error {
	var n int
	switch typ {
	case 0:
		_, err := b.varint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := b.bytes(typ)
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("unsupported wire type %d", typ)
	}
	if len(b.b) < n {
		return errTruncated
	}
	b.b = b.b[n:]
	return nil
}
