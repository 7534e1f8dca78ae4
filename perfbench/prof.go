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

// A CPU profile is a gzipped profile.proto message. The decoder below
// reads only what bucketing needs: sample stacks and values, locations
// with their (possibly inlined) lines, function names and the string
// table.

type profSample struct {
	locs []uint64
	vals []uint64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
	valueIx int // index of the cpu/nanoseconds value
}

// protoFields walks one message's fields, calling f with the field number,
// wire type, varint value (types 0, 1, 5) and payload (type 2).
func protoFields(b []byte, f func(num int, typ int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := f(num, typ, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, typ int, v uint64, payload []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, payload = append(dst, x), payload[n:]
	}
	return dst, nil
}

// parseProfile decodes a (gzipped or raw) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}, valueIx: -1}
	var sampleTypes [][2]int64 // (type, unit) string indexes
	err := protoFields(data, func(num, typ int, _ uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := protoFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s profSample
			err := protoFields(b, func(n, t int, v uint64, pl []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = varints(s.locs, t, v, pl)
				case 2:
					s.vals, err = varints(s.vals, t, v, pl)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(n, _ int, v uint64, pl []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return protoFields(pl, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range sampleTypes {
		if p.str(t[0]) == "cpu" && p.str(t[1]) == "nanoseconds" {
			p.valueIx = i
		}
	}
	if p.valueIx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	for _, s := range p.samples {
		if p.valueIx >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

// frames returns a sample's function names, innermost first.
func (p *profile) frames(s profSample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			out = append(out, p.str(p.funcs[f]))
		}
	}
	return out
}

// buckets sums CPU nanoseconds per bucket; every sample lands in exactly
// one bucket, so the buckets add up to total.
func (p *profile) buckets() (byBucket map[string]int64, total int64) {
	byBucket = map[string]int64{}
	for _, s := range p.samples {
		v := int64(s.vals[p.valueIx])
		byBucket[bucketOf(p.frames(s))] += v
		total += v
	}
	return byBucket, total
}

// Bucket names outside the program's own packages.
const (
	bucketMemmove = "runtime.memmove"
	bucketGC      = "runtime.gc"
	bucketNet     = "net"
	bucketBench   = "bench"
	bucketOther   = "other"
)

const modulePrefix = "memverify/internal/"

// bucketOf assigns one stack (innermost frame first) to exactly one
// bucket: a memmove leaf is runtime.memmove; otherwise the innermost frame
// that is GC work, network/syscall code or a memverify/internal package
// decides (GC, net, or that package's layer name, the last path element:
// service/client -> client); a stack with none of these goes to bench
// when the benchmark's own code is on it and to other when not (the
// scheduler, idle runtime work).
func bucketOf(frames []string) string {
	if len(frames) > 0 && frames[0] == "runtime.memmove" {
		return bucketMemmove
	}
	bench := false
	for _, f := range frames {
		switch {
		case isGCFrame(f):
			return bucketGC
		case isNetFrame(f):
			return bucketNet
		case strings.HasPrefix(f, modulePrefix):
			pkg := funcPackage(f)[len(modulePrefix):]
			return pkg[strings.LastIndexByte(pkg, '/')+1:]
		case strings.HasPrefix(f, "main."):
			bench = true
		}
	}
	if bench {
		return bucketBench
	}
	return bucketOther
}

// funcPackage returns the import path of a symbol such as
// "memverify/internal/service/client.(*Batch).Wait".
func funcPackage(f string) string {
	slash := strings.LastIndexByte(f, '/')
	dot := strings.IndexByte(f[slash+1:], '.')
	if dot < 0 {
		return f
	}
	return f[:slash+1+dot]
}

func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.sweepone",
		"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.wbBufFlush"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

func isNetFrame(f string) bool {
	if strings.HasPrefix(f, "runtime.netpoll") || strings.HasPrefix(f, "internal/runtime/syscall.") ||
		strings.HasPrefix(f, "runtime/internal/syscall.") {
		return true
	}
	switch pkg := funcPackage(f); {
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "syscall", pkg == "internal/poll",
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return true
	}
	return false
}
