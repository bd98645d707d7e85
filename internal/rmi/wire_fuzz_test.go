package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// fuzzGen deterministically derives a request frame from fuzz bytes. It only
// produces shapes gob can round-trip faithfully (no nil interface elements,
// no empty slices — gob decodes those as nil), since the property under test
// is binary↔gob equivalence, not gob's own quirks.
type fuzzGen struct {
	data []byte
	off  int
}

func (g *fuzzGen) byte() byte {
	if g.off >= len(g.data) {
		return 0
	}
	b := g.data[g.off]
	g.off++
	return b
}

func (g *fuzzGen) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (g *fuzzGen) str(max int) string {
	n := int(g.byte()) % (max + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + g.byte()%26
	}
	return string(b)
}

// float returns a generated float64 that is never NaN (NaN != NaN would
// fail DeepEqual for the wrong reason).
func (g *fuzzGen) float(fallback float64) float64 {
	if f := math.Float64frombits(g.u64()); !math.IsNaN(f) {
		return f
	}
	return fallback
}

func (g *fuzzGen) value(depth int) any {
	kind := g.byte() % 14
	if depth > 0 && kind == 10 {
		kind = g.byte() % 10 // nested lists only one level deep
	}
	switch kind {
	case 0:
		return g.byte()%2 == 0
	case 1:
		return int(int64(g.u64()))
	case 2:
		return int32(uint32(g.u64()))
	case 3:
		return int64(g.u64())
	case 4:
		return g.float(0.5)
	case 5:
		return g.str(12)
	case 6:
		n := 1 + int(g.byte())%8
		b := make([]byte, n)
		for i := range b {
			b[i] = g.byte()
		}
		return b
	case 7:
		n := 1 + int(g.byte())%16
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(uint32(g.u64()))
		}
		return v
	case 8:
		n := 1 + int(g.byte())%8
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(g.u64())
		}
		return v
	case 9:
		n := 1 + int(g.byte())%8
		v := make([]float64, n)
		for i := range v {
			v[i] = g.float(float64(i))
		}
		return v
	case 11: // a named float slice: the derived bulk path (imagepipe.Frame)
		n := 1 + int(g.byte())%8
		v := make(testFrame, n)
		for i := range v {
			v[i] = g.float(float64(i))
		}
		return v
	case 12: // a struct of exported fields (mandel.Spec)
		return testSpec{
			Width: int(int64(g.u64())), Height: int(g.byte()),
			XMin: g.float(-2), XMax: g.float(1), YMin: g.float(-1), YMax: g.float(1),
			MaxIter: int(int32(uint32(g.u64()))),
		}
	case 13: // a map of fixed-width slices (mandel's row results)
		m := make(map[int][]uint16)
		for n := 1 + int(g.byte())%4; len(m) < n; {
			row := make([]uint16, 1+int(g.byte())%6)
			for i := range row {
				row[i] = uint16(g.u64())
			}
			m[int(int8(g.byte()))] = row
			if g.off >= len(g.data) {
				break // exhausted input generates the same key forever
			}
		}
		return m
	default:
		n := 1 + int(g.byte())%3
		v := make([]any, n)
		for i := range v {
			v[i] = g.value(depth + 1)
		}
		return v
	}
}

func (g *fuzzGen) request() *request {
	flags := g.byte()
	req := &request{
		Object: g.str(16),
		Method: g.str(16),
		OneWay: flags&1 != 0,
		Hello:  flags&2 != 0,
	}
	if flags&4 != 0 {
		req.Client = g.str(16)
		req.Seq = g.u64()
		req.Epoch = int64(g.u64())
	}
	if flags&8 != 0 {
		req.Stream = uint32(g.u64())
	}
	if nargs := int(g.byte()) % 5; nargs > 0 {
		req.Args = make([]any, nargs)
		for i := range req.Args {
			req.Args[i] = g.value(0)
		}
	}
	return req
}

func (g *fuzzGen) response() *response {
	flags := g.byte()
	resp := &response{
		Bound: flags&1 != 0,
		Dup:   flags&2 != 0,
		Stale: flags&4 != 0,
	}
	if flags&8 != 0 {
		resp.Err = g.str(24)
	}
	if flags&16 != 0 {
		resp.Epoch = int64(g.u64())
	}
	if flags&32 != 0 {
		resp.ServiceNs = int64(g.u64())
	}
	if flags&64 != 0 {
		resp.Stream = uint32(g.u64())
	}
	if n := int(g.byte()) % 4; n > 0 {
		resp.Results = make([]any, n)
		for i := range resp.Results {
			resp.Results[i] = g.value(0)
		}
	}
	return resp
}

// FuzzBinaryGobEquivalence drives both codecs over generated frame shapes
// covering every Class.Wire payload type and asserts three properties: the
// binary codec round-trips losslessly, gob round-trips losslessly, and both
// decode to identical Go values — the invariant that lets a mixed cluster
// fall back between codecs without changing observable behaviour.
func FuzzBinaryGobEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("the quick brown fox jumps over the lazy dog 0123456789"))
	f.Add(bytes.Repeat([]byte{7, 0, 255, 128, 64, 33}, 16))
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		req := g.request()
		resp := g.response()

		checkReq := func(c Codec, label string) *request {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := c.newEncoder(bw).EncodeRequest(req); err != nil {
				t.Fatalf("%s encode request: %v", label, err)
			}
			bw.Flush()
			var out request
			if err := c.newDecoder(bufio.NewReader(&buf)).DecodeRequest(&out); err != nil {
				t.Fatalf("%s decode request: %v", label, err)
			}
			if !reflect.DeepEqual(req, &out) {
				t.Fatalf("%s request round trip:\n in: %#v\nout: %#v", label, req, &out)
			}
			return &out
		}
		binReq := checkReq(BinaryCodec(), "binary")
		gobReq := checkReq(GobCodec(), "gob")
		if !reflect.DeepEqual(binReq, gobReq) {
			t.Fatalf("codec divergence on request:\nbinary: %#v\ngob: %#v", binReq, gobReq)
		}

		checkResp := func(c Codec, label string) *response {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := c.newEncoder(bw).EncodeResponse(resp); err != nil {
				t.Fatalf("%s encode response: %v", label, err)
			}
			bw.Flush()
			var out response
			if err := c.newDecoder(bufio.NewReader(&buf)).DecodeResponse(&out); err != nil {
				t.Fatalf("%s decode response: %v", label, err)
			}
			if !reflect.DeepEqual(resp, &out) {
				t.Fatalf("%s response round trip:\n in: %#v\nout: %#v", label, resp, &out)
			}
			return &out
		}
		binResp := checkResp(BinaryCodec(), "binary")
		gobResp := checkResp(GobCodec(), "gob")
		if !reflect.DeepEqual(binResp, gobResp) {
			t.Fatalf("codec divergence on response:\nbinary: %#v\ngob: %#v", binResp, gobResp)
		}
	})
}

// FuzzBinaryDecodeRobustness throws raw bytes at the binary decoder: any
// input must produce a value or an error, never a panic or a runaway
// allocation (the frame cap and per-value bounds checks).
func FuzzBinaryDecodeRobustness(f *testing.F) {
	// Seed with a valid frame so mutations explore near-valid space.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := BinaryCodec().newEncoder(bw)
	enc.EncodeRequest(&request{Object: "PS1", Method: "Sieve", Args: []any{[]int32{2, 3, 5}, "x", true}})
	bw.Flush()
	f.Add(buf.Bytes())
	buf.Reset()
	bw = bufio.NewWriter(&buf)
	enc = BinaryCodec().newEncoder(bw)
	enc.EncodeResponse(&response{Results: []any{int64(-1), []float64{1.5}}, Bound: true, ServiceNs: 77})
	bw.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{})
	// Typed values: a frame carrying a derived type, the same frame cut
	// short mid-value, and one naming a type nobody registered.
	buf.Reset()
	bw = bufio.NewWriter(&buf)
	enc = BinaryCodec().newEncoder(bw)
	enc.EncodeRequest(&request{Object: "S0", Method: "Ingest", Args: []any{int64(3), testFrame{0.25, 1, -7},
		PipeStatus{Version: 1, Strands: []Stranded{{Name: "S1", Args: []any{testFrame{2}}}}}}})
	bw.Flush()
	typed := append([]byte(nil), buf.Bytes()...)
	f.Add(typed)
	f.Add(typed[:len(typed)-5])
	f.Add(typedFrame("example.com/pkg.Unknown", []byte{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		BinaryCodec().newDecoder(bufio.NewReader(bytes.NewReader(data))).DecodeRequest(&req)
		var resp response
		BinaryCodec().newDecoder(bufio.NewReader(bytes.NewReader(data))).DecodeResponse(&resp)
	})
}
