package rmi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The binary wire format. Each frame is
//
//	uvarint bodyLen | body
//
// and the body opens with a kind byte (request or response) followed by a
// flags uvarint that says which fields follow — absent fields cost zero
// bytes, so the windowed one-way hot path (object, method, one []int32 pack)
// is a few dozen bytes where gob spends hundreds and re-describes types per
// connection. Values are type-tagged: the built-in payload types ([]int32,
// []int64, []float64, []byte, scalars, []any) get dedicated tags, and every
// other type registered through RegisterType — named slices such as
// imagepipe.Frame, structs, maps, []string, ... — rides vTyped: the tag,
// the type's gob.Register name, then the value in its underlying layout,
// encoded and decoded by a coder derived once per type (typed.go). Slices of
// fixed-width numbers, tagged or derived, are one little-endian bulk run.
// An unregistered type is an encode error; an unknown name a decode error.
//
// The format is self-describing at the value level but NOT versioned beyond
// the codec name: changing any tag or layout means introducing a new codec
// name, negotiated in the handshake like any other. Tag 0x0d is retired and
// never reused, so a peer still sending it gets an unknown-tag error
// instead of a misparse.

const (
	bkRequest  = 0x01
	bkResponse = 0x02
)

// request flag bits.
const (
	frOneWay  = 1 << 0
	frHello   = 1 << 1
	frTracked = 1 << 2 // Client/Seq/Epoch present
	frStream  = 1 << 3
	frCodec   = 1 << 4 // handshake codec offer present
	frArgs    = 1 << 5 // argument list present (distinguishes nil from empty)
)

// response flag bits.
const (
	rfBound   = 1 << 0
	rfDup     = 1 << 1
	rfStale   = 1 << 2
	rfErr     = 1 << 3
	rfEpoch   = 1 << 4
	rfService = 1 << 5
	rfResults = 1 << 6
	rfStream  = 1 << 7
	rfCodec   = 1 << 8
)

// value tags.
const (
	vNil      = 0x00
	vFalse    = 0x01
	vTrue     = 0x02
	vInt      = 0x03 // zigzag varint, decodes as int
	vInt32    = 0x04 // zigzag varint, decodes as int32
	vInt64    = 0x05 // zigzag varint, decodes as int64
	vFloat64  = 0x06 // 8-byte LE IEEE 754
	vString   = 0x07 // uvarint len + bytes
	vBytes    = 0x08 // uvarint len + bytes
	vInt32s   = 0x09 // uvarint count + 4-byte LE each
	vInt64s   = 0x0a // uvarint count + 8-byte LE each
	vFloat64s = 0x0b // uvarint count + 8-byte LE each
	vAnys     = 0x0c // uvarint count + nested values
	vTyped    = 0x0e // uvarint len + registered type name + derived layout
)

// maxFrame bounds a frame a decoder will buffer: a corrupt or hostile length
// prefix must not translate into an arbitrary allocation.
const maxFrame = 1 << 28

var errFrameTruncated = errors.New("rmi: binary frame truncated")

func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendZigzag varint-encodes a signed value with the zigzag mapping, so
// small negative numbers stay small on the wire.
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

type binCodec struct{}

func (binCodec) Name() string { return binaryName }

func (binCodec) newEncoder(bw *bufio.Writer) frameEncoder { return &binEncoder{bw: bw} }

func (binCodec) newDecoder(br *bufio.Reader) frameDecoder { return &binDecoder{br: br} }

// binEncoder assembles each frame in a reused scratch buffer and writes it
// with its length prefix in one go; steady state allocates nothing.
type binEncoder struct {
	bw  *bufio.Writer
	buf []byte
	hdr [binary.MaxVarintLen64]byte
}

func (e *binEncoder) flushFrame() error {
	n := binary.PutUvarint(e.hdr[:], uint64(len(e.buf)))
	if _, err := e.bw.Write(e.hdr[:n]); err != nil {
		return err
	}
	_, err := e.bw.Write(e.buf)
	return err
}

func (e *binEncoder) EncodeRequest(req *request) error {
	b := append(e.buf[:0], bkRequest)
	var flags uint64
	if req.OneWay {
		flags |= frOneWay
	}
	if req.Hello {
		flags |= frHello
	}
	if req.Client != "" || req.Seq != 0 || req.Epoch != 0 {
		flags |= frTracked
	}
	if req.Stream != 0 {
		flags |= frStream
	}
	if req.Codec != "" {
		flags |= frCodec
	}
	if req.Args != nil {
		flags |= frArgs
	}
	b = binary.AppendUvarint(b, flags)
	if flags&frStream != 0 {
		b = binary.AppendUvarint(b, uint64(req.Stream))
	}
	b = appendWireString(b, req.Object)
	b = appendWireString(b, req.Method)
	if flags&frTracked != 0 {
		b = appendWireString(b, req.Client)
		b = binary.AppendUvarint(b, req.Seq)
		b = appendZigzag(b, req.Epoch)
	}
	if flags&frCodec != 0 {
		b = appendWireString(b, req.Codec)
	}
	if flags&frArgs != 0 {
		b = binary.AppendUvarint(b, uint64(len(req.Args)))
		var err error
		for _, v := range req.Args {
			if b, err = appendValue(b, v); err != nil {
				e.buf = b[:0]
				return err
			}
		}
	}
	e.buf = b
	return e.flushFrame()
}

func (e *binEncoder) EncodeResponse(resp *response) error {
	b := append(e.buf[:0], bkResponse)
	var flags uint64
	if resp.Bound {
		flags |= rfBound
	}
	if resp.Dup {
		flags |= rfDup
	}
	if resp.Stale {
		flags |= rfStale
	}
	if resp.Err != "" {
		flags |= rfErr
	}
	if resp.Epoch != 0 {
		flags |= rfEpoch
	}
	if resp.ServiceNs != 0 {
		flags |= rfService
	}
	if resp.Results != nil {
		flags |= rfResults
	}
	if resp.Stream != 0 {
		flags |= rfStream
	}
	if resp.Codec != "" {
		flags |= rfCodec
	}
	b = binary.AppendUvarint(b, flags)
	if flags&rfStream != 0 {
		b = binary.AppendUvarint(b, uint64(resp.Stream))
	}
	if flags&rfEpoch != 0 {
		b = appendZigzag(b, resp.Epoch)
	}
	if flags&rfService != 0 {
		b = appendZigzag(b, resp.ServiceNs)
	}
	if flags&rfErr != 0 {
		b = appendWireString(b, resp.Err)
	}
	if flags&rfCodec != 0 {
		b = appendWireString(b, resp.Codec)
	}
	if flags&rfResults != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.Results)))
		var err error
		for _, v := range resp.Results {
			if b, err = appendValue(b, v); err != nil {
				e.buf = b[:0]
				return err
			}
		}
	}
	e.buf = b
	return e.flushFrame()
}

func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, vNil), nil
	case bool:
		if x {
			return append(b, vTrue), nil
		}
		return append(b, vFalse), nil
	case int:
		return appendZigzag(append(b, vInt), int64(x)), nil
	case int32:
		return appendZigzag(append(b, vInt32), int64(x)), nil
	case int64:
		return appendZigzag(append(b, vInt64), x), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, vFloat64), math.Float64bits(x)), nil
	case string:
		return appendWireString(append(b, vString), x), nil
	case []byte:
		b = binary.AppendUvarint(append(b, vBytes), uint64(len(x)))
		return append(b, x...), nil
	case []int32:
		return appendFixed(b, vInt32s, x), nil
	case []int64:
		return appendFixed(b, vInt64s, x), nil
	case []float64:
		return appendFixed(b, vFloat64s, x), nil
	case []any:
		b = binary.AppendUvarint(append(b, vAnys), uint64(len(x)))
		var err error
		for _, e := range x {
			if b, err = appendValue(b, e); err != nil {
				return b, err
			}
		}
		return b, nil
	default:
		return appendTyped(b, v)
	}
}

// binDecoder reads one length-prefixed frame at a time into a reused buffer
// and parses it; every variable-length value is copied out, so the buffer's
// reuse never aliases decoded data.
type binDecoder struct {
	br  *bufio.Reader
	buf []byte
}

func (d *binDecoder) readFrame(wantKind byte) (wireCursor, error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		return wireCursor{}, err
	}
	if n > maxFrame {
		return wireCursor{}, fmt.Errorf("rmi: binary frame of %d bytes exceeds limit", n)
	}
	if uint64(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.br, d.buf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.EOF // mid-frame connection loss reads as a clean close
		}
		return wireCursor{}, err
	}
	c := wireCursor{b: d.buf}
	kind, err := c.byte()
	if err != nil {
		return wireCursor{}, err
	}
	if kind != wantKind {
		return wireCursor{}, fmt.Errorf("rmi: binary frame kind 0x%02x, want 0x%02x", kind, wantKind)
	}
	return c, nil
}

func (d *binDecoder) DecodeRequest(req *request) error {
	c, err := d.readFrame(bkRequest)
	if err != nil {
		return err
	}
	flags, err := c.uvarint()
	if err != nil {
		return err
	}
	req.OneWay = flags&frOneWay != 0
	req.Hello = flags&frHello != 0
	if flags&frStream != 0 {
		s, err := c.uvarint()
		if err != nil {
			return err
		}
		if s > math.MaxUint32 {
			return fmt.Errorf("rmi: stream id %d out of range", s)
		}
		req.Stream = uint32(s)
	}
	if req.Object, err = c.str(); err != nil {
		return err
	}
	if req.Method, err = c.str(); err != nil {
		return err
	}
	if flags&frTracked != 0 {
		if req.Client, err = c.str(); err != nil {
			return err
		}
		if req.Seq, err = c.uvarint(); err != nil {
			return err
		}
		if req.Epoch, err = c.zigzag(); err != nil {
			return err
		}
	}
	if flags&frCodec != 0 {
		if req.Codec, err = c.str(); err != nil {
			return err
		}
	}
	if flags&frArgs != 0 {
		if req.Args, err = c.values(); err != nil {
			return err
		}
	}
	return nil
}

func (d *binDecoder) DecodeResponse(resp *response) error {
	c, err := d.readFrame(bkResponse)
	if err != nil {
		return err
	}
	flags, err := c.uvarint()
	if err != nil {
		return err
	}
	resp.Bound = flags&rfBound != 0
	resp.Dup = flags&rfDup != 0
	resp.Stale = flags&rfStale != 0
	if flags&rfStream != 0 {
		s, err := c.uvarint()
		if err != nil {
			return err
		}
		if s > math.MaxUint32 {
			return fmt.Errorf("rmi: stream id %d out of range", s)
		}
		resp.Stream = uint32(s)
	}
	if flags&rfEpoch != 0 {
		if resp.Epoch, err = c.zigzag(); err != nil {
			return err
		}
	}
	if flags&rfService != 0 {
		if resp.ServiceNs, err = c.zigzag(); err != nil {
			return err
		}
	}
	if flags&rfErr != 0 {
		if resp.Err, err = c.str(); err != nil {
			return err
		}
	}
	if flags&rfCodec != 0 {
		if resp.Codec, err = c.str(); err != nil {
			return err
		}
	}
	if flags&rfResults != 0 {
		if resp.Results, err = c.values(); err != nil {
			return err
		}
	}
	return nil
}

// wireCursor parses one frame body with bounds checks everywhere: a corrupt
// frame yields an error, never a panic or an oversized allocation.
type wireCursor struct {
	b   []byte
	off int
}

func (c *wireCursor) remaining() int { return len(c.b) - c.off }

func (c *wireCursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, errFrameTruncated
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *wireCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, errFrameTruncated
	}
	c.off += n
	return v, nil
}

func (c *wireCursor) zigzag() (int64, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (c *wireCursor) take(n uint64) ([]byte, error) {
	if n > uint64(c.remaining()) {
		return nil, errFrameTruncated
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

func (c *wireCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	b, err := c.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// values parses a counted value list ([]any).
func (c *wireCursor) values() ([]any, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// Every encoded value costs at least one tag byte, so the count can
	// never legitimately exceed the bytes left.
	if n > uint64(c.remaining()) {
		return nil, errFrameTruncated
	}
	out := make([]any, n)
	for i := range out {
		if out[i], err = c.value(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *wireCursor) value() (any, error) {
	tag, err := c.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vNil:
		return nil, nil
	case vFalse:
		return false, nil
	case vTrue:
		return true, nil
	case vInt:
		v, err := c.zigzag()
		return int(v), err
	case vInt32:
		v, err := c.zigzag()
		if err != nil {
			return nil, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("rmi: int32 value %d out of range", v)
		}
		return int32(v), nil
	case vInt64:
		return c.zigzag()
	case vFloat64:
		b, err := c.take(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	case vString:
		return c.str()
	case vBytes:
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := c.take(n)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	case vInt32s:
		return readFixed[int32](c)
	case vInt64s:
		return readFixed[int64](c)
	case vFloat64s:
		return readFixed[float64](c)
	case vAnys:
		v, err := c.values()
		if err != nil {
			return nil, err
		}
		if v == nil {
			v = []any{}
		}
		return v, nil
	case vTyped:
		return c.typed()
	default:
		return nil, fmt.Errorf("rmi: unknown value tag 0x%02x", tag)
	}
}
