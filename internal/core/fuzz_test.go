package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzResultCodec holds the hand-written codec to encoding/json, which
// defined the canonical bytes before it:
//
//   - the fuzz input fills every exported field of a Result, and
//     EncodeResult must write exactly what json.Marshal writes for it
//     (after canonicalizing the config), failing where Marshal fails;
//   - DecodeResult must accept exactly what json.Unmarshal accepts, with
//     an identical value, both for those canonical bytes and for the raw
//     fuzz input.
//
// Filling by reflection means a field added to Result (or to any struct
// inside it) without codec support fails here at once: Marshal writes the
// new field and EncodeResult does not.
func FuzzResultCodec(f *testing.F) {
	canon := readGoldenResults(f)[0]
	var indented bytes.Buffer
	if err := json.Indent(&indented, canon, " ", "\t"); err != nil {
		f.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(canon, &fields); err != nil {
		f.Fatal(err)
	}
	reordered, err := json.Marshal(fields) // map keys marshal sorted
	if err != nil {
		f.Fatal(err)
	}
	delete(fields, "Hier")
	missing, err := json.Marshal(fields)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		canon,
		indented.Bytes(),
		append(append([]byte(" \n"), canon...), '\t'),
		reordered,
		missing,
		append([]byte(`{"FutureField":[1,{"x":null}],`), canon[1:]...),
		bytes.Replace(canon, []byte(`"DPolicy":"seldm+waypred"`), []byte(`"DPolicy":5`), 1),
		bytes.Replace(canon, []byte(`"IPolicy":"waypred"`), []byte(`"IPolicy":1`), 1),
		bytes.Replace(canon, []byte(`"Trace":""`), []byte(`"Trace":"a\u003cb"`), 1),
		// Canonical layout, but tokens the fast parse alone would misread:
		// a leading zero and a bare fraction (invalid JSON), and a raw
		// invalid UTF-8 byte (json.Unmarshal makes it U+FFFD).
		bytes.Replace(canon, []byte(`"Insts":20000`), []byte(`"Insts":020000`), 1),
		bytes.Replace(canon, []byte(`"WaySolo":0.15`), []byte(`"WaySolo":.15`), 1),
		bytes.Replace(canon, []byte(`"Trace":""`), []byte("\"Trace\":\"\xff\""), 1),
		canon[:len(canon)/2],
		{},
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := new(Result)
		fill(t, reflect.ValueOf(r).Elem(), &fuzzBytes{data: data}, "Result")

		canonical := *r
		canonical.Config = canonical.Config.Canonical()
		want, werr := json.Marshal(&canonical)
		got, gerr := EncodeResult(r)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("EncodeResult error %v, json.Marshal error %v", gerr, werr)
		}
		if gerr == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeResult differs from json.Marshal:\n got %s\nwant %s", got, want)
			}
			checkDecodeAgrees(t, got)
		}
		checkDecodeAgrees(t, data)
	})
}

// checkDecodeAgrees asserts DecodeResult(x) matches json.Unmarshal(x) on
// acceptance and, when accepted, on the decoded value.
func checkDecodeAgrees(t *testing.T, x []byte) {
	t.Helper()
	got, gerr := DecodeResult(x)
	want := new(Result)
	werr := json.Unmarshal(x, want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("DecodeResult error %v, json.Unmarshal error %v, input %q", gerr, werr, x)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeResult disagrees with json.Unmarshal on %q:\n got %+v\nwant %+v", x, got, want)
	}
}

// fuzzBytes hands out the fuzz input a few bytes at a time, as zeros once
// it runs out.
type fuzzBytes struct{ data []byte }

func (b *fuzzBytes) next(n int) []byte {
	out := make([]byte, n)
	b.data = b.data[copy(out, b.data):]
	return out
}

var jsonMarshaler = reflect.TypeOf((*json.Marshaler)(nil)).Elem()

// fill sets every exported field reachable from v from the fuzz bytes.
// Fields encoding/json skips (tagged "-") stay zero; a field kind with no
// rule here fails the test, so the fuzzer cannot silently skip it.
func fill(t *testing.T, v reflect.Value, b *fuzzBytes, path string) {
	switch {
	case v.Type().Implements(jsonMarshaler):
		// The policy enums: small values, so most name a real policy and
		// a few fall just outside the range.
		v.SetInt(int64(b.next(1)[0] % 10))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() || sf.Tag.Get("json") == "-" {
				continue
			}
			fill(t, v.Field(i), b, path+"."+sf.Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), b, path)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(binary.LittleEndian.Uint64(b.next(8))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b.next(8))))
	case reflect.Bool:
		v.SetBool(b.next(1)[0]&1 == 1)
	case reflect.String:
		v.SetString(string(b.next(int(b.next(1)[0] % 24))))
	default:
		t.Fatalf("%s: no fuzz fill rule for kind %s", path, v.Kind())
	}
}
