package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fillNonZero sets every settable field of a struct value (recursing
// into nested structs) to a nonzero value, so zeroing is observable.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		fillNonZero(elem)
		v.Set(reflect.Append(reflect.MakeSlice(v.Type(), 0, 1), elem))
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		key := reflect.New(v.Type().Key()).Elem()
		val := reflect.New(v.Type().Elem()).Elem()
		fillNonZero(key)
		fillNonZero(val)
		m.SetMapIndex(key, val)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillNonZero(p.Elem())
		v.Set(p)
	default:
		// Chan, func, interface fields would need bespoke handling;
		// Stats has none, and a new one should be thought about.
	}
}

// TestSemanticZeroesTelemetry is the runtime twin of flexvet FX003:
// starting from a Stats with every field nonzero, Semantic() must
// zero exactly the fields absent from statsSemanticFields and
// preserve the rest bit-for-bit.
func TestSemanticZeroesTelemetry(t *testing.T) {
	var filled Stats
	fillNonZero(reflect.ValueOf(&filled).Elem())

	fv := reflect.ValueOf(filled)
	for i := 0; i < fv.NumField(); i++ {
		if fv.Field(i).IsZero() {
			t.Fatalf("fillNonZero left Stats.%s zero; extend it for this field's type %s",
				fv.Type().Field(i).Name, fv.Type().Field(i).Type)
		}
	}

	sv := reflect.ValueOf(filled.Semantic())
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		got := sv.Field(i)
		if statsSemanticFields[f.Name] {
			if !reflect.DeepEqual(got.Interface(), fv.Field(i).Interface()) {
				t.Errorf("Semantic() changed semantic field Stats.%s: %v -> %v",
					f.Name, fv.Field(i).Interface(), got.Interface())
			}
		} else if !got.IsZero() {
			t.Errorf("Semantic() preserved telemetry field Stats.%s = %v; zero it or add it to statsSemanticFields",
				f.Name, got.Interface())
		}
	}

	st := reflect.TypeOf(Stats{})
	for name := range statsSemanticFields {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("statsSemanticFields names %q, which is not a Stats field", name)
		}
	}
}

// TestResultJSONCarriesSemanticStats: every field Semantic() preserves
// appears, under its Stats json name, in the marshalled result, so a
// new counter cannot be left out of MarshalJSON's hand copy.
func TestResultJSONCarriesSemanticStats(t *testing.T) {
	r := &Result{}
	fillNonZero(reflect.ValueOf(&r.Stats).Elem())
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	st := reflect.TypeOf(Stats{})
	for name := range statsSemanticFields {
		f, _ := st.FieldByName(name)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if _, ok := wire.Stats[key]; !ok {
			t.Errorf("Stats.%s (%q) is missing from the result JSON", name, key)
		}
	}
}
