package main

// Folding a CPU profile by simulator layer. The runtime writes profiles
// as gzipped profile.proto; this file decodes the few fields the fold
// needs with a minimal protobuf reader, so the benchmark needs nothing
// outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profileLayers are the buckets a sample is charged to, named after the
// repository's modules. core.solve is the solver (solve.go, beam.go,
// core.go), core.loop the device serving loop (server.go);
// cluster.route is the routers (router.go), cluster.dispatch the rest of
// the fleet event core (events, dispatch, hedging, control actuation);
// costmodel is the engine, model, hw, sim, alloc and verify packages;
// bench is this benchmark's own wrappers; runtime is a sample with no
// repository frame at all (GC workers, the scheduler).
var profileLayers = []string{
	"core.solve", "core.loop", "rng", "costmodel", "cluster.route", "cluster.dispatch",
	"control", "sched", "kvcache", "memplane", "metrics", "obs", "search", "workload",
	"bench", "other", "runtime",
}

// layerOf maps one frame to its layer, "" for a frame outside the
// repository (the runtime, the standard library).
func layerOf(fn, file string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "fasttts/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.Index(rest, "."); i >= 0 {
		pkg = rest[:i]
	}
	switch strings.TrimPrefix(pkg, "internal/") {
	case "core":
		if path.Base(file) == "server.go" {
			return "core.loop"
		}
		return "core.solve"
	case "cluster":
		if path.Base(file) == "router.go" {
			return "cluster.route"
		}
		return "cluster.dispatch"
	case "engine", "model", "hw", "sim", "alloc", "verify":
		return "costmodel"
	case "rng", "control", "sched", "kvcache", "memplane", "metrics", "obs", "search", "workload":
		return strings.TrimPrefix(pkg, "internal/")
	}
	return "other"
}

// profileFold is the sample count per layer.
type profileFold struct {
	samples map[string]int64
	total   int64
}

// add folds g's samples into f.
func (f *profileFold) add(g profileFold) {
	if f.samples == nil {
		f.samples = map[string]int64{}
	}
	for layer, n := range g.samples {
		f.samples[layer] += n
	}
	f.total += g.total
}

func (f profileFold) share(layer string) float64 {
	return ratio(float64(f.samples[layer]), float64(f.total))
}

// foldProfile charges every sample of a gzipped CPU profile to a layer
// (see sampleLayer); inlined frames count as frames.
func foldProfile(gz []byte) (profileFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return profileFold{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profileFold{}, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return profileFold{}, err
	}
	fold := profileFold{samples: map[string]int64{}}
	for _, s := range p.samples {
		layer := p.sampleLayer(s)
		fold.samples[layer] += s.count
		fold.total += s.count
	}
	return fold, nil
}

// sampleLayer is the layer of a sample's innermost repository frame,
// with one exception: the KV memory plane keeps its prefix cache in a
// kvcache radix tree, so kvcache frames called from memplane count as
// memplane. kvcache.cpu_share is then the solver's beam tree alone.
func (p *pprofData) sampleLayer(s pprofSample) string {
	inner := ""
	for _, loc := range s.locs {
		for _, fid := range p.locations[loc] {
			f := p.functions[fid]
			l := layerOf(p.str(f.name), p.str(f.file))
			switch {
			case l == "" || l == inner:
			case inner == "":
				if inner = l; inner != "kvcache" {
					return inner
				}
			case l == "memplane":
				return l
			default:
				return inner
			}
		}
	}
	if inner == "" {
		return "runtime"
	}
	return inner
}

// pprofData is the decoded subset of a profile.proto message.
type pprofData struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]pprofFunc
	strings   []string
}

type pprofSample struct {
	locs  []uint64 // leaf first
	count int64
}

type pprofFunc struct{ name, file int64 }

func (p *pprofData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6
	sampleLoc    = 1
	sampleValue  = 2
	locID        = 1
	locLine      = 4
	lineFunction = 1
	functionID   = 1
	functionName = 2
	functionFile = 4
	wireVarint   = 0
	wireFixed64  = 1
	wireBytes    = 2
	wireFixed32  = 5
)

func parseProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locations: map[uint64][]uint64{}, functions: map[uint64]pprofFunc{}}
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case profSample:
			var s pprofSample
			var values []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				var err error
				switch num {
				case sampleLoc:
					s.locs, err = appendRepeated(s.locs, wire, v, sub)
				case sampleValue:
					values, err = appendRepeated(values, wire, v, sub)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profFunction:
			var id uint64
			var f pprofFunc
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					f.name = int64(v)
				case functionFile:
					f.file = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = f
		case profString:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendRepeated appends a repeated varint field's values, packed or not.
func appendRepeated(dst []uint64, wire int, v uint64, sub []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst, nil
}

// eachField walks one message's fields, passing varints in v and
// length-delimited payloads in sub.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
