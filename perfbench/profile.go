package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the layers a CPU profile sample is charged to, in the
// order the traced run prints them.
var cpuLayers = []string{
	"workload", "trace.encode", "trace.decode", "cache", "stream", "filter",
	"core.access", "core.follower", "core.snapshot", "models",
	"experiments", "search", "service", "codec", "runtime", "other",
}

// profiler samples the process's CPU during each timed unit and sums
// the samples by layer; nil in untraced runs.
type profiler struct {
	buf bytes.Buffer
	on  bool
	cpu map[string]float64 // CPU seconds by layer
	err error
}

func newProfiler() *profiler { return &profiler{cpu: map[string]float64{}} }

func (p *profiler) start() {
	if p == nil || p.err != nil {
		return
	}
	p.buf.Reset()
	if p.err = pprof.StartCPUProfile(&p.buf); p.err == nil {
		p.on = true
	}
}

func (p *profiler) stop() {
	if p == nil || !p.on {
		return
	}
	pprof.StopCPUProfile()
	p.on = false
	shares, err := profileShares(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	for l, sec := range shares {
		p.cpu[l] += sec
	}
}

// codecStd and runtimeStd are the standard-library packages charged to
// the codec (HTTP, JSON, request hashing, sockets) and to the runtime.
var (
	codecStd   = []string{"net", "crypto/", "encoding/", "bufio", "reflect", "internal/poll", "syscall"}
	runtimeStd = []string{"runtime", "sync", "internal/runtime/", "internal/sync", "internal/bytealg", "math/bits"}
)

func hasPkg(pkg string, list []string) bool {
	for _, p := range list {
		if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// layerOf maps a function's full name to its layer. snapshot reports
// whether the name is one of core's fork, merge and checkpoint calls,
// which own everything beneath them (state clones included).
func layerOf(fn string) (layer string, snapshot bool) {
	pkg, name := fn, ""
	slash := strings.LastIndex(fn, "/") + 1
	if j := strings.Index(fn[slash:], "."); j >= 0 {
		pkg, name = fn[:slash+j], fn[slash+j+1:]
	}
	switch pkg {
	case "streamsim/internal/workload":
		return "workload", false
	case "streamsim/internal/trace":
		// Iterators, readers, replays and the window index (Window,
		// windowMarks) are the decode side; the rest is the encoder.
		for _, d := range []string{"StoreIter", "Reader", "Replay", "indow"} {
			if strings.Contains(name, d) {
				return "trace.decode", false
			}
		}
		return "trace.encode", false
	case "streamsim/internal/cache":
		return "cache", false
	case "streamsim/internal/stream":
		return "stream", false
	case "streamsim/internal/filter":
		return "filter", false
	case "streamsim/internal/core":
		for _, s := range []string{"Fork", "Merge", "Checkpoint", "Restore", "snapshotSystem", "ResetStats", "adoptState"} {
			if strings.HasSuffix(name, s) {
				return "core.snapshot", true
			}
		}
		if strings.HasSuffix(name, "applyTap") {
			return "core.follower", false
		}
		return "core.access", false
	case "streamsim/internal/victim", "streamsim/internal/prefetch", "streamsim/internal/timing", "streamsim/internal/memctl", "streamsim/internal/stats":
		return "models", false
	case "streamsim/internal/experiments", "streamsim/internal/tab":
		return "experiments", false
	case "streamsim/internal/search", "streamsim/internal/sweeprun", "streamsim/internal/cost":
		return "search", false
	case "streamsim/internal/service", "streamsim/internal/service/api":
		return "service", false
	}
	switch {
	case hasPkg(pkg, codecStd):
		return "codec", false
	case hasPkg(pkg, runtimeStd):
		return "runtime", false
	}
	return "other", false
}

// profileShares reads a gzipped pprof CPU profile and returns each
// layer's CPU seconds. A sample is charged to core.snapshot when any
// frame of its stack is a snapshot call, and otherwise to the innermost
// frame outside the runtime, so allocation and copying count against
// the layer that asked for them; samples with only runtime frames
// (garbage collection, scheduling) stay with the runtime.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			continue
		}
		layer, found := "runtime", false
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fid := range p.locFuncs[loc] { // innermost inlined frame first
				l, snap := layerOf(p.strings[p.funcNames[fid]])
				switch {
				case snap:
					layer = l
					break stack
				case !found && l != "runtime":
					layer, found = l, true
				}
			}
		}
		out[layer] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

// rawProfile is the part of profile.proto the shares need.
type rawProfile struct {
	sampleTypes []string
	samples     []rawSample
	locFuncs    map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcNames   map[uint64]int64    // function ID -> string table index
	strings     []string
}

type rawSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the protobuf fields of profile.proto that the
// shares use: sample_type (1), sample (2), location (4), function (5)
// and string_table (6).
func parseProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var typeIdx []int64
	err := eachField(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 1:
			return eachField(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2:
			var s rawSample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return eachVarint(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		if i < 0 || int(i) >= len(p.strings) {
			return nil, fmt.Errorf("profile: string index %d out of range", i)
		}
		p.sampleTypes = append(p.sampleTypes, p.strings[i])
	}
	for id, i := range p.funcNames {
		if i < 0 || int(i) >= len(p.strings) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, i, len(p.strings))
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
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
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint reads a repeated varint field in either encoding: one
// value (data nil) or a packed run.
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
