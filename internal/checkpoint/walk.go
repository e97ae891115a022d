package checkpoint

// The payload codec: one reflective walk over a state value's declared
// fields, in declaration order. int and int64 travel as i64, uint64 and
// uint8 as themselves, float64 as its IEEE-754 bits, strings, []byte and
// every other slice behind a u64 count, structs field by field. Map-backed
// state arrives pre-sorted from its Snapshot method, so one state always
// encodes to one byte sequence. The kinds come from the static types of
// Session and Sweep, never from the input: an unsupported kind is a
// programmer error (TestStateTypesWalkable names the field), not a decode
// failure.

import (
	"fmt"
	"math"
	"reflect"
)

// sealValue encodes the state struct ptr points to into a sealed container.
func sealValue(kind byte, ptr any) []byte {
	var e enc
	encodeValue(&e, reflect.ValueOf(ptr).Elem())
	return seal(kind, e.b)
}

// openValue decodes a sealed container of the given kind into the state
// struct ptr points to; wrongKind words the CorruptError for any other kind.
func openValue(b []byte, kind byte, wrongKind string, ptr any) error {
	got, payload, err := open(b)
	if err != nil {
		return err
	}
	if got != kind {
		return &CorruptError{Field: "kind", Msg: wrongKind}
	}
	d := &dec{b: payload}
	decodeValue(d, reflect.ValueOf(ptr).Elem())
	return d.finish()
}

func encodeValue(e *enc, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		e.u64(uint64(v.Int()))
	case reflect.Uint64:
		e.u64(v.Uint())
	case reflect.Uint8:
		e.b = append(e.b, byte(v.Uint()))
	case reflect.Float64:
		e.u64(math.Float64bits(v.Float()))
	case reflect.String:
		e.u64(uint64(v.Len()))
		e.b = append(e.b, v.String()...)
	case reflect.Slice:
		e.u64(uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			e.b = append(e.b, v.Bytes()...)
			return
		}
		for i := 0; i < v.Len(); i++ {
			encodeValue(e, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			encodeValue(e, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("checkpoint: cannot encode %s", v.Type()))
	}
}

// decodeValue fills the addressable v. The first failure sticks in d and
// every later read yields zeros; zero-length slices stay nil.
func decodeValue(d *dec, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(d.u64()))
	case reflect.Uint64:
		v.SetUint(d.u64())
	case reflect.Uint8:
		v.SetUint(uint64(d.u8()))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(d.u64()))
	case reflect.String:
		v.SetString(string(d.take(d.count(1))))
	case reflect.Slice:
		n := d.count(minSize(v.Type().Elem()))
		if n == 0 {
			return
		}
		v.Grow(n) // in place: MakeSlice would also allocate a header to Set from
		v.SetLen(n)
		if v.Type().Elem().Kind() == reflect.Uint8 {
			copy(v.Bytes(), d.take(n))
			return
		}
		for i := 0; i < n && d.err == nil; i++ {
			decodeValue(d, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			decodeValue(d, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("checkpoint: cannot decode %s", v.Type()))
	}
}

// minSize is the fewest bytes one value of type t can encode to — what
// dec.count divides the remaining payload by before sizing an allocation.
func minSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Uint8:
		return 1
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += minSize(t.Field(i).Type)
		}
		return n
	default: // fixed 8-byte scalars, and the count prefix of strings and slices
		return 8
	}
}
