// Package layers attributes host time to the program's layers: it folds a
// CPU profile of a workload by a fixed symbol→layer map, and times probes
// that call each layer's exported functions on inputs shaped like the
// workload that uses them. Nothing here is gated; it may import any layer.
package layers

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Names lists the layers a profile folds into, in report order. "other"
// takes what no rule claims: internal/model, internal/workload, mc, obs,
// the benchmark's own frames and the rest of the standard library.
var Names = []string{"des", "sim", "xrand", "policy", "metrics", "serve", "daemon", "cluster", "runtime", "os", "other"}

// layerOf maps one function to its layer by package path, with one
// exception: everything defined in internal/sim/observer.go (the per-node
// task FIFO) exists only to feed telemetry and folds into metrics.
func layerOf(function, file string) string {
	if strings.HasSuffix(file, "internal/sim/observer.go") {
		return "metrics"
	}
	pkg := function
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic instantiation
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch pkg {
	case "churnlb/internal/des":
		return "des"
	case "churnlb/internal/sim":
		return "sim"
	case "churnlb/internal/xrand":
		return "xrand"
	case "churnlb/internal/policy":
		return "policy"
	case "churnlb/internal/metrics":
		return "metrics"
	case "churnlb/internal/serve", "churnlb":
		return "serve"
	case "churnlb/internal/daemon":
		return "daemon"
	case "churnlb/internal/cluster":
		return "cluster"
	case "net", "os", "syscall", "internal/poll", "internal/runtime/syscall", "runtime/internal/syscall":
		return "os"
	case "runtime", "sync", "sync/atomic", "time", "internal/abi", "internal/cpu", "internal/bytealg", "internal/sync":
		return "runtime"
	}
	switch {
	case strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "internal/syscall/"), strings.HasPrefix(pkg, "net/"):
		return "os"
	}
	return "other"
}

// Symbol is one function's flat share of a profile.
type Symbol struct {
	Name, Layer string
	Share       float64
}

// Fold decodes a gzipped pprof CPU profile and returns each layer's share
// of the flat samples (the function executing when the sample was taken,
// innermost inlined frame first), plus the per-function shares, largest
// first. A profile with no samples folds to all-zero shares.
func Fold(profile []byte) (map[string]float64, []Symbol, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	flat := map[uint64]int64{} // function id → sample value
	var total int64
	for _, s := range p.samples {
		if len(s.locations) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu/nanoseconds
		total += v
		flat[p.leaf[s.locations[0]]] += v
	}
	shares := make(map[string]float64, len(Names))
	for _, name := range Names {
		shares[name] = 0
	}
	if total == 0 { // a run shorter than the 10 ms sampling period
		return shares, nil, nil
	}
	symbols := make([]Symbol, 0, len(flat))
	for id, v := range flat {
		f := p.functions[id]
		name, file := p.str(f.name), p.str(f.file)
		if name == "" {
			name = "(unknown)"
		}
		sym := Symbol{Name: name, Layer: layerOf(name, file), Share: float64(v) / float64(total)}
		shares[sym.Layer] += sym.Share
		symbols = append(symbols, sym)
	}
	sort.Slice(symbols, func(i, j int) bool {
		if symbols[i].Share != symbols[j].Share {
			return symbols[i].Share > symbols[j].Share
		}
		return symbols[i].Name < symbols[j].Name
	})
	return shares, symbols, nil
}

// --- the subset of pprof's profile.proto the fold needs ---

type pprofSample struct {
	locations []uint64
	values    []int64
}

type pprofFunction struct{ name, file int64 }

type pprofProfile struct {
	samples   []pprofSample
	leaf      map[uint64]uint64 // location id → innermost function id
	functions map[uint64]pprofFunction
	strings   []string
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// protoReader walks the fields of one protobuf message.
type protoReader struct {
	buf []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.buf) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		b := r.buf[0]
		r.buf = r.buf[1:]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
	r.err = fmt.Errorf("pprof: varint overflow")
	return 0
}

func (r *protoReader) bytes(n uint64) []byte {
	if n > uint64(len(r.buf)) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// next returns the next field: its number, and either its varint value
// (payload nil) or its length-delimited payload (never nil). Fixed-width
// fields are skipped.
func (r *protoReader) next() (field int, v uint64, payload []byte, ok bool) {
	for r.err == nil && len(r.buf) > 0 {
		key := r.varint()
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			return field, r.varint(), nil, r.err == nil
		case 2:
			payload = append([]byte{}, r.bytes(r.varint())...)
			return field, 0, payload, r.err == nil
		case 1:
			r.bytes(8)
		case 5:
			r.bytes(4)
		default:
			r.err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
	}
	return 0, 0, nil, false
}

// repeated appends a repeated varint field, packed or not, to dst.
func repeated(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	r := protoReader{buf: payload}
	for r.err == nil && len(r.buf) > 0 {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func decodeProfile(raw []byte) (*pprofProfile, error) {
	p := &pprofProfile{leaf: map[uint64]uint64{}, functions: map[uint64]pprofFunction{}}
	top := protoReader{buf: raw}
	for {
		field, _, payload, ok := top.next()
		if !ok {
			break
		}
		var err error
		switch field {
		case 2: // Sample
			var s pprofSample
			var values []uint64
			m := protoReader{buf: payload}
			for {
				f, v, pl, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locations, err = repeated(s.locations, v, pl)
				case 2:
					values, err = repeated(values, v, pl)
				}
			}
			for _, v := range values {
				s.values = append(s.values, int64(v))
			}
			if m.err != nil {
				err = m.err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var innermost uint64
			seen := false
			m := protoReader{buf: payload}
			for {
				f, v, pl, ok := m.next()
				if !ok {
					break
				}
				switch {
				case f == 1:
					id = v
				case f == 4 && !seen: // first Line is the innermost inlined frame
					seen = true
					l := protoReader{buf: pl}
					for {
						lf, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							innermost = lv
						}
					}
					err = l.err
				}
			}
			if m.err != nil {
				err = m.err
			}
			p.leaf[id] = innermost
		case 5: // Function
			var id uint64
			var fn pprofFunction
			m := protoReader{buf: payload}
			for {
				f, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
			}
			err = m.err
			p.functions[id] = fn
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("pprof: %w", top.err)
	}
	return p, nil
}
