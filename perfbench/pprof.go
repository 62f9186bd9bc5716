package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one CPU-profile sample: its stack as function names,
// innermost first, and the CPU nanoseconds it stands for.
type cpuSample struct {
	Stack []string
	NS    int64
}

// decodeCPUProfile reads the gzipped profile.proto that runtime/pprof
// writes and returns its samples. Only the fields the module attribution
// needs are decoded: samples, locations (with inlined lines), functions
// and the string table.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := varints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(wire, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{}
		if len(s.values) > 1 {
			cs.NS = s.values[1]
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					cs.Stack = append(cs.Stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// varints returns the values of a repeated varint field, packed or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("cpu profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
