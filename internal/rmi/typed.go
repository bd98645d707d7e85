package rmi

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file derives the binary codec's encoders for registered types.
// RegisterType — called by NetRMI.ExportNew for every Class.Wire sample on
// the driver, and by Node.Host on every daemon — walks the type once with
// reflect and builds a coder for its underlying layout. A registered value
// travels as
//
//	vTyped | uvarint len + name | value
//
// where name is the one gob.Register assigns, so both codecs agree on type
// identity. The value layouts mirror the built-in tags: zigzag varints for
// signed integers, uvarints for unsigned ones, fixed-width little-endian
// bytes for floats and for whole slices and arrays of fixed-width numbers
// (one bulk copy, no per-element reflection), uvarint counts for slices,
// maps and strings, struct fields in declaration order, a presence byte for
// pointers, and a nested tagged value for interface-typed fields.

// coder encodes and decodes values of one Go type.
type coder struct {
	// enc appends v's encoding.
	enc func(b []byte, v reflect.Value) ([]byte, error)
	// dec decodes into the settable v, overwriting it completely (so a
	// scratch value can be reused across map entries).
	dec func(c *wireCursor, v reflect.Value) error
	// fresh, when set, decodes into a newly made value that is not
	// addressable, so Interface() boxes it without another copy. Slices and
	// maps have one; everything else decodes through reflect.New.
	fresh func(c *wireCursor) (reflect.Value, error)
	// min is the fewest bytes one encoded value occupies; decoders bound
	// element counts by it before allocating.
	min int
}

// wireType is one registered concrete type.
type wireType struct {
	name string // the gob.Register name, sent on the wire
	typ  reflect.Type
	*coder
}

// decode reads one value of the type and returns it boxed.
func (w *wireType) decode(c *wireCursor) (any, error) {
	if w.fresh != nil {
		v, err := w.fresh(c)
		if err != nil {
			return nil, err
		}
		return v.Interface(), nil
	}
	v := reflect.New(w.typ).Elem()
	if err := w.dec(c, v); err != nil {
		return nil, err
	}
	return v.Interface(), nil
}

// typeTable is an immutable snapshot of the registered types: readers load
// it without locking, registration publishes a copy.
type typeTable struct {
	byType map[reflect.Type]*wireType
	byName map[string]*wireType
}

var (
	typesMu    sync.Mutex // serialises registration
	wireTypes  atomic.Pointer[typeTable]
	emptyTable = &typeTable{}
)

func loadTypes() *typeTable {
	if t := wireTypes.Load(); t != nil {
		return t
	}
	return emptyTable
}

func init() {
	// The types gob registers on its own, so a value gob ships without a
	// RegisterType call crosses the binary codec too. (Those with a
	// dedicated tag are registered in rmi.go; appendValue never reaches
	// their derived coders.)
	for _, v := range []any{
		int8(0), int16(0), uint(0), uint8(0), uint16(0), uint32(0), uint64(0), uintptr(0),
		float32(0), complex64(0), complex128(0),
		[]int(nil), []int8(nil), []int16(nil), []uint(nil), []uint16(nil), []uint32(nil),
		[]uint64(nil), []uintptr(nil), []float32(nil), []complex64(nil), []complex128(nil),
		[]bool(nil), []string(nil),
	} {
		RegisterType(v)
	}
}

// RegisterType makes a concrete argument/result type encodable across RMI
// under both codecs: it registers the type with gob (which requires
// concrete types carried in interfaces to be registered) and derives the
// binary codec's encoder and decoder for it. Registering a type again is a
// no-op. Like gob.Register, it panics on a name conflict — and on a type the
// binary codec cannot carry (funcs, channels, unexported struct fields,
// interfaces with methods), naming the type.
func RegisterType(v any) {
	t := reflect.TypeOf(v)
	if t == nil {
		panic("rmi: RegisterType of nil")
	}
	if loadTypes().byType[t] != nil {
		return
	}
	typesMu.Lock()
	defer typesMu.Unlock()
	old := loadTypes()
	if old.byType[t] != nil {
		return
	}
	c := derive(t, make(map[reflect.Type]*coder), t.String())
	gob.Register(v)
	wt := &wireType{name: gobTypeName(t), typ: t, coder: c}
	next := &typeTable{
		byType: make(map[reflect.Type]*wireType, len(old.byType)+1),
		byName: make(map[string]*wireType, len(old.byName)+1),
	}
	for k, w := range old.byType {
		next.byType[k] = w
	}
	for k, w := range old.byName {
		next.byName[k] = w
	}
	next.byType[t] = wt
	next.byName[wt.name] = wt
	wireTypes.Store(next)
}

// gobTypeName is the name gob.Register gives t: the package-qualified name
// of a named type, the printed form of anything else.
func gobTypeName(t reflect.Type) string {
	if t.Name() != "" && t.PkgPath() != "" {
		return t.PkgPath() + "." + t.Name()
	}
	if t.Name() != "" {
		return t.Name()
	}
	return t.String()
}

// appendTyped encodes a value of a registered type (the vTyped tag).
func appendTyped(b []byte, v any) ([]byte, error) {
	wt := loadTypes().byType[reflect.TypeOf(v)]
	if wt == nil {
		return b, fmt.Errorf("rmi: binary codec: type %T is not registered (rmi.RegisterType)", v)
	}
	b = appendWireString(append(b, vTyped), wt.name)
	return wt.enc(b, reflect.ValueOf(v))
}

// typed decodes the name and value following a vTyped tag.
func (c *wireCursor) typed() (any, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	name, err := c.take(n)
	if err != nil {
		return nil, err
	}
	wt := loadTypes().byName[string(name)]
	if wt == nil {
		if len(name) > 64 {
			name = name[:64]
		}
		return nil, fmt.Errorf("rmi: binary codec: unknown wire type %q", name)
	}
	return wt.decode(c)
}

var (
	errBadBool     = errors.New("rmi: binary codec: bool byte out of range")
	errBadPresence = errors.New("rmi: binary codec: pointer presence byte out of range")
)

// derive builds t's coder. seen breaks recursion: a recursive type reaches
// itself only through a pointer, slice, map or interface, whose coders are
// entered in seen before their element is derived. path names the
// registered type, for the panic message.
func derive(t reflect.Type, seen map[reflect.Type]*coder, path string) *coder {
	if c := seen[t]; c != nil {
		return c
	}
	c := &coder{}
	seen[t] = c
	switch t.Kind() {
	case reflect.Bool:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
			if v.Bool() {
				return append(b, 1), nil
			}
			return append(b, 0), nil
		}
		c.dec = func(r *wireCursor, v reflect.Value) error {
			x, err := r.byte()
			if err != nil {
				return err
			}
			if x > 1 {
				return errBadBool
			}
			v.SetBool(x == 1)
			return nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) ([]byte, error) { return appendZigzag(b, v.Int()), nil }
		c.dec = func(r *wireCursor, v reflect.Value) error {
			x, err := r.zigzag()
			if err != nil {
				return err
			}
			if v.OverflowInt(x) {
				return fmt.Errorf("rmi: binary codec: %d overflows %s", x, v.Type())
			}
			v.SetInt(x)
			return nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) ([]byte, error) { return binary.AppendUvarint(b, v.Uint()), nil }
		c.dec = func(r *wireCursor, v reflect.Value) error {
			x, err := r.uvarint()
			if err != nil {
				return err
			}
			if v.OverflowUint(x) {
				return fmt.Errorf("rmi: binary codec: %d overflows %s", x, v.Type())
			}
			v.SetUint(x)
			return nil
		}
	case reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		// Stored as raw little-endian bits, like the elements of a bulk
		// slice: a one-element view of the value's memory.
		w := int(t.Size())
		c.min = w
		c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
			return appendLE(b, addressable(v).Addr().UnsafePointer(), w, laneOf(t)), nil
		}
		c.dec = func(r *wireCursor, v reflect.Value) error {
			src, err := r.take(uint64(w))
			if err != nil {
				return err
			}
			readLE(v.Addr().UnsafePointer(), src, laneOf(t))
			return nil
		}
	case reflect.String:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) ([]byte, error) { return appendWireString(b, v.String()), nil }
		c.dec = func(r *wireCursor, v reflect.Value) error {
			s, err := r.str()
			if err != nil {
				return err
			}
			v.SetString(s)
			return nil
		}
	case reflect.Slice:
		c.min = 1
		if laneOf(t.Elem()) != 0 {
			bulkSliceCoder(t, c)
		} else {
			sliceCoder(t, c, derive(t.Elem(), seen, path))
		}
	case reflect.Array:
		arrayCoder(t, c, derive(t.Elem(), seen, path))
	case reflect.Map:
		c.min = 1
		mapCoder(t, c, derive(t.Key(), seen, path), derive(t.Elem(), seen, path))
	case reflect.Struct:
		structCoder(t, c, seen, path)
	case reflect.Pointer:
		c.min = 1
		pointerCoder(t, c, derive(t.Elem(), seen, path))
	case reflect.Interface:
		if t.NumMethod() != 0 {
			panic(fmt.Sprintf("rmi: RegisterType(%s): interface %s has methods; only any fields cross the binary codec", path, t))
		}
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) ([]byte, error) { return appendValue(b, v.Interface()) }
		c.dec = func(r *wireCursor, v reflect.Value) error {
			x, err := r.value()
			if err != nil {
				return err
			}
			if x == nil {
				v.SetZero()
			} else {
				v.Set(reflect.ValueOf(x))
			}
			return nil
		}
	default:
		panic(fmt.Sprintf("rmi: RegisterType(%s): cannot encode %s values", path, t.Kind()))
	}
	return c
}

// addressable returns v itself when it is addressable, else a copy that is
// (a top-level value unboxed from an interface is not).
func addressable(v reflect.Value) reflect.Value {
	if v.CanAddr() {
		return v
	}
	p := reflect.New(v.Type()).Elem()
	p.Set(v)
	return p
}

// laneOf is the byte width of one little-endian scalar in a fixed-width
// number kind (a complex number is two of them), or 0 for other kinds.
func laneOf(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32, reflect.Complex64:
		return 4
	case reflect.Int64, reflect.Uint64, reflect.Float64, reflect.Complex128:
		return 8
	}
	return 0
}

// bulkSliceCoder encodes a slice of fixed-width numbers (imagepipe.Frame's
// shape) as a count and one little-endian run, read straight from the
// backing array.
func bulkSliceCoder(t reflect.Type, c *coder) {
	w, lane := int(t.Elem().Size()), laneOf(t.Elem())
	c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n))
		if n == 0 {
			return b, nil
		}
		return appendLE(b, v.UnsafePointer(), n*w, lane), nil
	}
	// read bounds the count and returns the element bytes; fill copies them
	// into a value of length n.
	read := func(r *wireCursor) (int, []byte, error) {
		n, err := r.uvarint()
		if err != nil {
			return 0, nil, err
		}
		if n > uint64(r.remaining()/w) {
			return 0, nil, errFrameTruncated
		}
		src, err := r.take(n * uint64(w))
		return int(n), src, err
	}
	c.fresh = func(r *wireCursor) (reflect.Value, error) {
		n, src, err := read(r)
		if err != nil || n == 0 {
			return reflect.Zero(t), err
		}
		s := reflect.MakeSlice(t, n, n)
		readLE(s.UnsafePointer(), src, lane)
		return s, nil
	}
	c.dec = func(r *wireCursor, v reflect.Value) error {
		n, src, err := read(r)
		if err != nil {
			return err
		}
		v.SetZero()
		if n > 0 {
			v.Grow(n)
			v.SetLen(n)
			readLE(v.UnsafePointer(), src, lane)
		}
		return nil
	}
}

// countFor reads an element count and bounds it by the bytes left, given
// that each element occupies at least min of them.
func countFor(r *wireCursor, min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()/max(min, 1)) {
		return 0, errFrameTruncated
	}
	return int(n), nil
}

func sliceCoder(t reflect.Type, c, elem *coder) {
	c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n))
		var err error
		for i := 0; i < n && err == nil; i++ {
			b, err = elem.enc(b, v.Index(i))
		}
		return b, err
	}
	fill := func(r *wireCursor, s reflect.Value) error {
		for i := 0; i < s.Len(); i++ {
			if err := elem.dec(r, s.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
	c.fresh = func(r *wireCursor) (reflect.Value, error) {
		n, err := countFor(r, elem.min)
		if err != nil || n == 0 {
			return reflect.Zero(t), err
		}
		s := reflect.MakeSlice(t, n, n)
		return s, fill(r, s)
	}
	c.dec = func(r *wireCursor, v reflect.Value) error {
		n, err := countFor(r, elem.min)
		if err != nil {
			return err
		}
		v.SetZero()
		if n == 0 {
			return nil
		}
		v.Grow(n)
		v.SetLen(n)
		return fill(r, v)
	}
}

func arrayCoder(t reflect.Type, c, elem *coder) {
	n := t.Len()
	if laneOf(t.Elem()) != 0 {
		w, lane := int(t.Size()), laneOf(t.Elem())
		c.min = w
		c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
			return appendLE(b, addressable(v).Addr().UnsafePointer(), w, lane), nil
		}
		c.dec = func(r *wireCursor, v reflect.Value) error {
			src, err := r.take(uint64(w))
			if err != nil {
				return err
			}
			readLE(v.Addr().UnsafePointer(), src, lane)
			return nil
		}
		return
	}
	c.min = n * elem.min
	c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
		var err error
		for i := 0; i < n && err == nil; i++ {
			b, err = elem.enc(b, v.Index(i))
		}
		return b, err
	}
	c.dec = func(r *wireCursor, v reflect.Value) error {
		for i := 0; i < n; i++ {
			if err := elem.dec(r, v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

func mapCoder(t reflect.Type, c, key, elem *coder) {
	c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(v.Len()))
		var err error
		for it := v.MapRange(); it.Next() && err == nil; {
			if b, err = key.enc(b, it.Key()); err == nil {
				b, err = elem.enc(b, it.Value())
			}
		}
		return b, err
	}
	c.fresh = func(r *wireCursor) (reflect.Value, error) {
		n, err := countFor(r, key.min+elem.min)
		if err != nil {
			return reflect.Value{}, err
		}
		m := reflect.MakeMapWithSize(t, n)
		k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		for i := 0; i < n; i++ {
			if err := key.dec(r, k); err != nil {
				return reflect.Value{}, err
			}
			if err := elem.dec(r, e); err != nil {
				return reflect.Value{}, err
			}
			m.SetMapIndex(k, e)
		}
		return m, nil
	}
	c.dec = func(r *wireCursor, v reflect.Value) error {
		m, err := c.fresh(r)
		if err != nil {
			return err
		}
		v.Set(m)
		return nil
	}
}

func structCoder(t reflect.Type, c *coder, seen map[reflect.Type]*coder, path string) {
	fields := make([]*coder, t.NumField())
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() {
			panic(fmt.Sprintf("rmi: RegisterType(%s): %s has unexported field %s", path, t, f.Name))
		}
		fields[i] = derive(f.Type, seen, path)
		c.min += fields[i].min
	}
	c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
		var err error
		for i, f := range fields {
			if b, err = f.enc(b, v.Field(i)); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	c.dec = func(r *wireCursor, v reflect.Value) error {
		for i, f := range fields {
			if err := f.dec(r, v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

func pointerCoder(t reflect.Type, c, elem *coder) {
	c.enc = func(b []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(b, 0), nil
		}
		return elem.enc(append(b, 1), v.Elem())
	}
	c.dec = func(r *wireCursor, v reflect.Value) error {
		present, err := r.byte()
		if err != nil {
			return err
		}
		switch present {
		case 0:
			v.SetZero()
			return nil
		case 1:
			p := reflect.New(t.Elem())
			if err := elem.dec(r, p.Elem()); err != nil {
				return err
			}
			v.Set(p)
			return nil
		}
		return errBadPresence
	}
}

// nativeLE reports whether this machine stores numbers little-endian, the
// wire's byte order — then bulk runs are plain memory copies.
var nativeLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// appendLE appends size bytes of fixed-width numbers starting at p in
// little-endian order, lane bytes per scalar.
func appendLE(b []byte, p unsafe.Pointer, size, lane int) []byte {
	src := unsafe.Slice((*byte)(p), size)
	if nativeLE || lane == 1 {
		return append(b, src...)
	}
	return appendSwapped(b, src, lane)
}

// readLE copies little-endian fixed-width numbers from src into the memory
// at p, lane bytes per scalar; p must hold len(src) bytes.
func readLE(p unsafe.Pointer, src []byte, lane int) {
	dst := unsafe.Slice((*byte)(p), len(src))
	if nativeLE || lane == 1 {
		copy(dst, src)
		return
	}
	swapInto(dst, src, lane)
}

// appendSwapped appends src with the bytes of every lane-byte scalar
// reversed: a big-endian host's conversion to and from the wire order.
func appendSwapped(b, src []byte, lane int) []byte {
	b = slices.Grow(b, len(src))
	for i := 0; i < len(src); i += lane {
		for j := lane - 1; j >= 0; j-- {
			b = append(b, src[i+j])
		}
	}
	return b
}

// swapInto is appendSwapped into a buffer of len(src) bytes.
func swapInto(dst, src []byte, lane int) {
	for i := 0; i < len(src); i += lane {
		for j := 0; j < lane; j++ {
			dst[i+j] = src[i+lane-1-j]
		}
	}
}

// appendFixed encodes a built-in fixed-width slice tag (vInt32s, vInt64s,
// vFloat64s) through the same bulk path as the derived slices.
func appendFixed[E int32 | int64 | float64](b []byte, tag byte, x []E) []byte {
	var zero E
	w := int(unsafe.Sizeof(zero))
	b = binary.AppendUvarint(append(b, tag), uint64(len(x)))
	return appendLE(b, unsafe.Pointer(unsafe.SliceData(x)), w*len(x), w)
}

// readFixed decodes the body of a built-in fixed-width slice tag.
func readFixed[E int32 | int64 | float64](c *wireCursor) ([]E, error) {
	var zero E
	w := int(unsafe.Sizeof(zero))
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.remaining()/w) {
		return nil, errFrameTruncated
	}
	src, err := c.take(n * uint64(w))
	if err != nil {
		return nil, err
	}
	out := make([]E, n)
	if n > 0 {
		readLE(unsafe.Pointer(unsafe.SliceData(out)), src, w)
	}
	return out, nil
}
