package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aspectpar/internal/exec"
)

// Local twins of the repo's Class.Wire types (the app packages import this
// one, so the tests mirror their shapes instead of importing them).
type (
	// testFrame is imagepipe.Frame's shape: a named []float64.
	testFrame []float64
	// testSpec is mandel.Spec's shape: a struct of exported scalars.
	testSpec struct {
		Width, Height int
		XMin, XMax    float64
		YMin, YMax    float64
		MaxIter       int
	}
)

func init() {
	RegisterType(testFrame(nil))
	RegisterType([]testFrame(nil))
	RegisterType(testSpec{})
	RegisterType(map[int][]uint16(nil))
	RegisterType(time.Duration(0))
}

// repoWireValues is one value of every Class.Wire type the repo registers,
// plus the topology control types, keyed by a label.
func repoWireValues() []struct {
	name string
	v    any
} {
	return []struct {
		name string
		v    any
	}{
		{"Frame", testFrame{0.5, -1.25, 3e300, 0}},
		{"[]Frame", []testFrame{{1, 2}, {3}, {4, 5, 6}}},
		{"mandel.Spec", testSpec{Width: 40, Height: 24, XMin: -2, XMax: 1, YMin: -1.2, YMax: 1.2, MaxIter: 64}},
		{"map[int][]uint16", map[int][]uint16{0: {1, 2, 65535}, 7: {9}}},
		{"time.Duration", 1500 * time.Millisecond},
		{"PipeStatus", PipeStatus{
			Version: 3, Initiated: 10, Acked: 8, StrandedCum: 1,
			Errs:    []string{"boom"},
			Strands: []Stranded{{Name: "S2", Stage: 2, Method: "Ingest", Args: []any{int64(4), testFrame{1, 2}}}},
		}},
		{"Stranded", Stranded{Name: "S1", Stage: 1, Method: "Ingest", Args: []any{int64(9), testFrame{7}}}},
		{"[]string", []string{"a", "", "node-1"}},
	}
}

// TestTypedRoundTripAndGobEquivalence is the per-type contract of the typed
// path: every repo wire type round-trips through the binary codec, and
// decodes to exactly what the gob codec decodes.
func TestTypedRoundTripAndGobEquivalence(t *testing.T) {
	for _, c := range repoWireValues() {
		in := &request{Object: "o", Method: "m", Args: []any{c.v}}
		bin := roundTripRequest(t, BinaryCodec(), in)
		if !reflect.DeepEqual(bin.Args, in.Args) {
			t.Errorf("%s: binary round trip\n in: %#v\nout: %#v", c.name, in.Args, bin.Args)
		}
		gb := roundTripRequest(t, GobCodec(), in)
		if !reflect.DeepEqual(bin.Args, gb.Args) {
			t.Errorf("%s: binary decoded %#v, gob decoded %#v", c.name, bin.Args, gb.Args)
		}
		resp := roundTripResponse(t, BinaryCodec(), &response{Results: []any{c.v}, Bound: true})
		if !reflect.DeepEqual(resp.Results, in.Args) {
			t.Errorf("%s: binary response round trip\n in: %#v\nout: %#v", c.name, in.Args, resp.Results)
		}
	}
}

// TestTypedNameIsGobName pins the wire name to gob's: both codecs agree on
// type identity, so the registration is the same call for both.
func TestTypedNameIsGobName(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{testFrame(nil), "aspectpar/internal/rmi.testFrame"},
		{time.Duration(0), "time.Duration"},
		{uint16(0), "uint16"},
		{[]string(nil), "[]string"},
		{&testSpec{}, "*rmi.testSpec"},
		{[2]testFrame{}, "[2]rmi.testFrame"},
		{map[string]int(nil), "map[string]int"},
	} {
		if got := gobTypeName(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("gobTypeName(%T) = %q, want %q", c.v, got, c.want)
		}
	}
}

// The remaining shapes the deriver supports, beyond the repo's own types.
type (
	typedInner struct {
		On   bool
		Tags [2]string
	}
	typedAll struct {
		I8    int8
		U     uint
		U16   uint16
		F32   float32
		C128  complex128
		Vec   [3]int32
		Next  *typedAll
		Inner typedInner
		Any   any
		Bytes []byte
		Bools []bool
		Ints  []int
	}
)

func TestTypedShapesRoundTrip(t *testing.T) {
	RegisterType(typedAll{})
	v := typedAll{
		I8: -8, U: 1 << 40, U16: 65535, F32: 1.5, C128: complex(1, -2),
		Vec:   [3]int32{1, -2, 3},
		Next:  &typedAll{I8: 1, Inner: typedInner{Tags: [2]string{"x", "y"}}},
		Inner: typedInner{On: true, Tags: [2]string{"a", ""}},
		Any:   []any{"nested", int32(5), testFrame{1}},
		Bytes: []byte{0, 255},
		Bools: []bool{true, false},
		Ints:  []int{-1, 1 << 50},
	}
	values := []any{v, []complex64{complex(1, 2)}, uint8(7), float32(-0.25), int16(-300), []uint16{1, 2}}
	out := roundTripRequest(t, BinaryCodec(), &request{Object: "o", Method: "m", Args: values})
	if !reflect.DeepEqual(out.Args, values) {
		t.Errorf("binary round trip\n in: %#v\nout: %#v", values, out.Args)
	}
}

// TestTypedEmptyValuesMatchGob pins the nil/empty mapping to gob's: an
// empty registered slice decodes as its typed nil under both codecs.
func TestTypedEmptyValuesMatchGob(t *testing.T) {
	for _, v := range []any{testFrame{}, []string{}, []testFrame{}} {
		in := &request{Object: "o", Method: "m", Args: []any{v}}
		bin := roundTripRequest(t, BinaryCodec(), in)
		gb := roundTripRequest(t, GobCodec(), in)
		if !reflect.DeepEqual(bin.Args, gb.Args) {
			t.Errorf("%T: binary decoded %#v, gob decoded %#v", v, bin.Args, gb.Args)
		}
	}
}

func TestTypedUnregisteredTypeIsAnEncodeError(t *testing.T) {
	type unregistered []float64
	var buf bytes.Buffer
	err := BinaryCodec().newEncoder(bufio.NewWriter(&buf)).EncodeRequest(
		&request{Object: "o", Method: "m", Args: []any{unregistered{1}}})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("encoding an unregistered type: err = %v, want a not-registered error", err)
	}
}

// typedFrame builds a request frame whose single argument is a vTyped value
// with the given name and value bytes.
func typedFrame(name string, value []byte) []byte {
	body := []byte{bkRequest}
	body = binary.AppendUvarint(body, frArgs)
	body = appendWireString(body, "o")
	body = appendWireString(body, "m")
	body = binary.AppendUvarint(body, 1)
	body = appendWireString(append(body, vTyped), name)
	body = append(body, value...)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

func decodeFrame(frame []byte) (*request, error) {
	var req request
	err := BinaryCodec().newDecoder(bufio.NewReader(bytes.NewReader(frame))).DecodeRequest(&req)
	return &req, err
}

type typedPtr struct{ P *int }

func TestTypedDecoderRejectsBadInput(t *testing.T) {
	name := gobTypeName(reflect.TypeOf(testFrame(nil)))
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string][]byte{
		"unknown name":          typedFrame("no.such/Type", nil),
		"count beyond frame":    typedFrame(name, huge),
		"bool byte":             typedFrame("[]bool", []byte{1, 2}),
		"int8 overflow":         typedFrame("int8", binary.AppendUvarint(nil, 1000)),
		"uint16 overflow":       typedFrame("uint16", binary.AppendUvarint(nil, 70000)),
		"map count":             typedFrame("map[int][]uint16", huge),
		"string slice count":    typedFrame("[]string", huge),
		"pointer presence byte": typedFrame(gobTypeName(reflect.TypeOf(typedPtr{})), []byte{2}),
	}
	RegisterType(typedPtr{})
	for label, frame := range cases {
		if _, err := decodeFrame(frame); err == nil {
			t.Errorf("%s: decoded successfully", label)
		}
	}
	// Every truncation of a valid typed frame errors, never panics.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := BinaryCodec().newEncoder(bw).EncodeRequest(&request{Object: "o", Method: "m", Args: []any{
		repoWireValues()[5].v, testFrame{1, 2, 3}, map[int][]uint16{1: {2}}}}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	_, k := binary.Uvarint(buf.Bytes())
	body := buf.Bytes()[k:]
	for cut := 0; cut < len(body); cut++ {
		frame := append(binary.AppendUvarint(nil, uint64(cut)), body[:cut]...)
		if _, err := decodeFrame(frame); err == nil {
			t.Fatalf("truncation to %d of %d body bytes decoded successfully", cut, len(body))
		}
	}
}

func TestRegisterTypePanicsOnUnencodableTypes(t *testing.T) {
	type hidden struct {
		Visible int
		secret  int
	}
	type withChan struct{ C chan int }
	type withMethods struct{ E error }
	for _, c := range []struct {
		v    any
		want string
	}{
		{func() {}, "func"},
		{withChan{}, "chan"},
		{hidden{}, "unexported field secret"},
		{withMethods{}, "has methods"},
	} {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if r == nil || !strings.Contains(msg, c.want) || !strings.Contains(msg, reflect.TypeOf(c.v).String()) {
					t.Errorf("RegisterType(%T): panic %v, want one naming the type and %q", c.v, r, c.want)
				}
			}()
			RegisterType(c.v)
		}()
	}
}

// TestBinaryTypedSendAllocsPerWindowedCall pins the typed path's one-way
// send to the built-in tag's cost: a named []float64 frame allocates no
// more per call than a plain []float64 of the same length. Each measured
// call flushes, so the server's decode of the payload lands inside the
// count instead of racing it.
func TestBinaryTypedSendAllocsPerWindowedCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	client, stub := startEchoServer(t, WithCodec(BinaryCodec()), WithSendWindow(1<<20))
	measure := func(payload any) float64 {
		send := func() {
			if err := stub.Send("M", payload); err != nil {
				t.Fatal(err)
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		send() // warm the path
		return testing.AllocsPerRun(400, send)
	}
	plain := measure(make([]float64, 256))
	frame := measure(make(testFrame, 256))
	t.Logf("allocs per flushed one-way send: []float64 %.2f, testFrame %.2f", plain, frame)
	if frame > plain {
		t.Errorf("typed frame send allocates %.2f objects/call, []float64 send %.2f", frame, plain)
	}
}

// hopServant hosts a two-stage chain: Push records its frame and returns
// its arguments; the "next" rule forwards them verbatim.
type hopServant struct {
	mu   sync.Mutex
	seen map[int64]testFrame
}

type hopStage struct{}

func (s *hopServant) New(exec.Context, []any) (any, error) { return &hopStage{}, nil }

func (s *hopServant) Invoke(_ exec.Context, _ any, method string, args []any) ([]any, error) {
	id, frame := args[0].(int64), args[1].(testFrame)
	s.mu.Lock()
	s.seen[id] = frame
	s.mu.Unlock()
	return []any{id, frame}, nil
}

func (s *hopServant) WireTypes() []any { return []any{testFrame(nil)} }

func (s *hopServant) ForwardRule(rule string) (func(int, []any, []any) []any, bool) {
	return func(_ int, results, _ []any) []any { return results }, rule == "next"
}

// TestTopologyPeerHopsNegotiateBinary drives frames through a two-node chain
// whose hops run peer-to-peer: the forwarding node dials its successor
// offering its own preferred codec, so the hop runs on binary — and against
// a gob-only successor the handshake falls back, with every hop delivered.
// A topology without a rule forwards each stage call's own arguments.
func TestTopologyPeerHopsNegotiateBinary(t *testing.T) {
	for _, c := range []struct {
		name      string
		successor []Option
		wantBin   bool
		rule      string
	}{
		{"binary", nil, true, "next"},
		{"gob-only-successor", []Option{WithCodecs(GobCodec())}, false, "next"},
		{"no-rule", nil, true, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := func(opts []Option) (*Node, *hopServant, string) {
				s := &hopServant{seen: make(map[int64]testFrame)}
				n := NewNode(exec.Real(), opts...)
				n.Host("Hop", s)
				addr, err := n.Listen("127.0.0.1:0")
				if err != nil {
					t.Skipf("loopback TCP unavailable: %v", err)
				}
				t.Cleanup(n.Close)
				return n, s, addr
			}
			head, _, headAddr := start(nil)
			_, tail, tailAddr := start(c.successor)
			names, addrs := []string{"H0", "H1"}, []string{headAddr, tailAddr}
			var headStub, headCtl *Stub
			for i, addr := range addrs {
				client, err := Dial(addr, WithCodec(BinaryCodec()))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { client.Close() })
				ctl, err := client.Lookup(ControlName)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ctl.Invoke(CtlExportNew, "Hop", names[i]); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					headCtl = ctl
					if headStub, err = client.Lookup(names[0]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := headCtl.Invoke(CtlTopology, int64(1), "Push", c.rule, names, addrs); err != nil {
				t.Fatal(err)
			}
			const frames = 40
			for i := int64(0); i < frames; i++ {
				if err := headStub.Send("Push", i, testFrame{float64(i), 0.5}); err != nil {
					t.Fatal(err)
				}
			}
			if err := headStub.Flush(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				res, err := headCtl.Invoke(CtlPipePoll, "", false)
				if err != nil {
					t.Fatal(err)
				}
				st := res[0].(PipeStatus)
				if st.StrandedCum != 0 || len(st.Errs) != 0 {
					t.Fatalf("hops stranded or failed: %+v", st)
				}
				if st.Acked == frames {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d hops acknowledged: %+v", st.Acked, frames, st)
				}
				time.Sleep(time.Millisecond)
			}
			tail.mu.Lock()
			defer tail.mu.Unlock()
			for i := int64(0); i < frames; i++ {
				if f := tail.seen[i]; !reflect.DeepEqual(f, testFrame{float64(i), 0.5}) {
					t.Errorf("successor holds %v for frame %d", f, i)
				}
			}
			head.pipes.mu.Lock()
			peer := head.pipes.peers[tailAddr]
			head.pipes.mu.Unlock()
			if peer == nil {
				t.Fatal("no peer connection to the successor")
			}
			peer.client.sendMu.Lock()
			_, bin := peer.client.enc.(*binEncoder)
			peer.client.sendMu.Unlock()
			if bin != c.wantBin {
				t.Errorf("peer hop on binary = %v, want %v", bin, c.wantBin)
			}
		})
	}
}

// TestBulkByteOrderLoops checks the per-lane byte reversal a big-endian
// host runs in place of the plain copy: every scalar comes out mirrored,
// and reading mirrors it back.
func TestBulkByteOrderLoops(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for lane, want := range map[int][]byte{
		2: {2, 1, 4, 3, 6, 5, 8, 7},
		4: {4, 3, 2, 1, 8, 7, 6, 5},
		8: {8, 7, 6, 5, 4, 3, 2, 1},
	} {
		wire := appendSwapped([]byte{0xaa}, src, lane)
		if !bytes.Equal(wire, append([]byte{0xaa}, want...)) {
			t.Errorf("lane %d: appendSwapped = % x, want aa % x", lane, wire, want)
		}
		back := make([]byte, len(src))
		swapInto(back, wire[1:], lane)
		if !bytes.Equal(back, src) {
			t.Errorf("lane %d: swapInto read back % x, want % x", lane, back, src)
		}
	}
}
