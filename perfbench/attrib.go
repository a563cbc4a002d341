package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layers are the simulator packages a sample can be charged to, named by
// their directory under odpsim/internal/. A frame in any other internal
// package is charged to "other"; a stack with no internal frame at all
// (GC workers, the scheduler, this harness) to "runtime".
var layers = []string{
	"scenario", "cluster", "core", "apps", "sim", "fabric", "congestion",
	"packet", "rnic", "irn", "odp", "npr", "hostmem", "telemetry", "shard",
	"stats",
}

// buckets is every attribution target in report order.
var buckets = append(append([]string(nil), layers...), "other", "runtime")

const internalPrefix = "odpsim/internal/"

// layerOfFunc returns the bucket of one fully qualified function name, or
// "" when the function is not simulator code.
func layerOfFunc(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if rest == l {
			return l
		}
	}
	return "other"
}

// layerOf charges a stack, listed innermost frame first, to the innermost
// simulator frame: a map lookup inside rnic code counts as rnic and a
// mallocgc as its caller's layer. Stacks of the profiler itself, outside
// any simulator frame, are the measurement's own cost and return "".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime/pprof.") || strings.HasPrefix(fn, "main.(*tracer).") {
			return ""
		}
	}
	return "runtime"
}

// attribution accumulates weights (CPU nanoseconds or allocated bytes)
// per bucket.
type attribution map[string]float64

func (a attribution) add(stack []string, w float64) {
	if l := layerOf(stack); l != "" {
		a[l] += w
	}
}

func (a attribution) total() float64 {
	t := 0.0
	for _, w := range a {
		t += w
	}
	return t
}

// share returns bucket's fraction of the total weight (0 when empty).
func (a attribution) share(bucket string) float64 {
	t := a.total()
	if t == 0 {
		return 0
	}
	return a[bucket] / t
}

// addCPUProfile charges every sample of a gzipped pprof CPU profile, as
// runtime/pprof writes it, by its CPU time.
func (a attribution) addCPUProfile(data []byte) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return errors.New("profile has no cpu sample type")
	}
	for _, s := range p.samples {
		if vi < len(s.values) {
			a.add(p.stack(s), float64(s.values[vi]))
		}
	}
	return nil
}

// memKey identifies one allocation site in runtime.MemProfile records.
type memKey [32]uintptr

// heapProfile reads the runtime's cumulative allocation records into
// reused storage, so reading them does not itself show up as allocation.
type heapProfile struct{ recs []runtime.MemProfileRecord }

// read fills dst with the records by allocation site. The caller runs
// runtime.GC first so the records include every allocation made before.
func (h *heapProfile) read(dst map[memKey]runtime.MemProfileRecord) {
	for {
		n, ok := runtime.MemProfile(h.recs, true)
		if ok {
			clear(dst)
			for _, r := range h.recs[:n] {
				dst[r.Stack0] = r
			}
			return
		}
		h.recs = make([]runtime.MemProfileRecord, n+n/4+64)
	}
}

// addAllocDelta charges the allocations sampled between two snapshots,
// each site's bytes unbiased for the sampling rate the way pprof scales
// them.
func (a attribution) addAllocDelta(before, after map[memKey]runtime.MemProfileRecord, rate int) {
	for k, r := range after {
		objs := r.AllocObjects - before[k].AllocObjects
		size := r.AllocBytes - before[k].AllocBytes
		if objs <= 0 || size <= 0 {
			continue
		}
		a.add(symbolize(r.Stack()), float64(size)*sampleScale(float64(size)/float64(objs), rate))
	}
}

// sampleScale is the inverse probability that an allocation of avgSize
// bytes is sampled at the given MemProfileRate.
func sampleScale(avgSize float64, rate int) float64 {
	if rate <= 1 {
		return 1
	}
	return 1 / (1 - math.Exp(-avgSize/float64(rate)))
}

// symbolize expands return PCs into function names, innermost first,
// including inlined frames.
func symbolize(pcs []uintptr) []string {
	frames := runtime.CallersFrames(pcs)
	var out []string
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// profile is the part of a pprof profile.proto message attribution needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strs        []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// stack returns a sample's function names, innermost first.
func (p *profile) stack(s sample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// parseProfile decodes a (possibly gzipped) profile.proto message. Only
// the fields attribution reads are kept: sample types, samples,
// locations with their line→function links, functions and the string
// table.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var typeIdx []int64
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample: {location_id=1 packed, value=2 packed}
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id=1, line=4 {function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: {id=1, name=2}
			var id uint64
			name := int64(-1)
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
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
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, i := range typeIdx {
		name := ""
		if i >= 0 && int(i) < len(p.strs) {
			name = p.strs[i]
		}
		p.sampleTypes = append(p.sampleTypes, name)
	}
	return p, nil
}

// appendVarints collects a repeated integer field in either its packed
// (length-delimited) or unpacked (one varint per field) encoding.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its integer value (varint and fixed) or
// its bytes (length-delimited).
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
