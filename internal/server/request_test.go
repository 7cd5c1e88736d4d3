package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// streamDecode is the reference reading of a submission body: a
// json.Decoder with DisallowUnknownFields, taking one value and
// refusing more after it. More does not count a closing bracket as
// more, so trailing data is also anything but JSON white space after
// the value.
func streamDecode(data []byte) (*Request, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil || dec.More() {
		return nil, false
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, false
	}
	return &req, true
}

// FuzzParseRequest: decodeRequest accepts exactly the bodies the
// stream decoder accepts, and decodes them to an equal Request.
func FuzzParseRequest(f *testing.F) {
	for _, tc := range admissionCases {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{"model": "settop", "workers": 1}`,
		`{"MODEL": "settop", "MaxScan": 5, "deadlinems": 100}`,
		`{"model": "settop", "model": "sdr"}`,
		`{"spec": {"name": "x"}, "enumerator": "bitset", "producers": 2, "batch": null}`,
		`{"model": "settop"}]`,
		`{"maxſcan": 1, "checKpointevery": 2}`,
		`{"spec": {"a": ["}", "\\\"]", {"b": [1, -2.5e3, true, null]}], "c": {}}, "mod\u0065l": "x", "timing": "a,b}"}`,
		`{"mod\u0065ls": 1}`,
		` { } `,
		`{"model": "settop", "weighted": true}` + "\n\t ",
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, ok := streamDecode(data)
		got, aerr := decodeRequest(data)
		switch {
		case ok && aerr != nil:
			t.Fatalf("%q: refused (%s), the stream decoder accepts it", data, aerr.Message)
		case !ok && aerr == nil:
			t.Fatalf("%q: accepted as %+v, the stream decoder refuses it", data, got)
		case ok && !reflect.DeepEqual(got, want):
			t.Fatalf("%q: decoded %+v, the stream decoder %+v", data, got, want)
		}
	})
}

// TestDecodeRequestSpecInPlace: the inline spec is decoded in place. It
// holds exactly the spec's bytes in the body's own backing array, with
// no capacity past them, so an append cannot write into the body.
func TestDecodeRequestSpecInPlace(t *testing.T) {
	const inline = `{"name": "x", "a": ["}", 1]}`
	body := []byte(`{"workers": 1, "spec": ` + inline + `, "model": ""}`)
	req, aerr := decodeRequest(body)
	if aerr != nil {
		t.Fatal(aerr.Message)
	}
	if string(req.Spec) != inline {
		t.Fatalf("spec %q, want %q", req.Spec, inline)
	}
	if at := bytes.Index(body, []byte(inline)); &req.Spec[0] != &body[at] {
		t.Error("the decoded spec is a copy, not the body's bytes")
	}
	if cap(req.Spec) != len(req.Spec) {
		t.Errorf("spec capacity %d past its %d bytes", cap(req.Spec), len(req.Spec))
	}
}

// TestDecodeRequestErrorNamesRequestFields: a value of the wrong type
// is refused with the message decoding into Request gives, which names
// the field as Request's.
func TestDecodeRequestErrorNamesRequestFields(t *testing.T) {
	for _, body := range []string{`{"workers": "2"}`, `{"spec": {}, "weighted": 1}`, `{"maxScan": 1.5}`} {
		want := "decoding request: " + json.Unmarshal([]byte(body), new(Request)).Error()
		if _, aerr := decodeRequest([]byte(body)); aerr == nil || aerr.Message != want {
			t.Errorf("%s: refused with %v, want %q", body, aerr, want)
		}
	}
}

// BenchmarkDecodeRequest decodes a Set-Top submission with its spec
// inline.
func BenchmarkDecodeRequest(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "settop.json"))
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"spec": ` + string(raw) + `, "workers": 1}`)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, aerr := decodeRequest(body); aerr != nil {
			b.Fatal(aerr.Message)
		}
	}
}

// TestRequestFieldsNameEveryField: the unknown-field check knows every
// Request field by its json name.
func TestRequestFieldsNameEveryField(t *testing.T) {
	names := requestFields
	if len(names) != reflect.TypeFor[Request]().NumField() {
		t.Fatalf("%d names for %d fields", len(names), reflect.TypeFor[Request]().NumField())
	}
	for _, n := range names {
		if n == "" || n == "-" {
			t.Errorf("field without a json name: %q", n)
		}
	}
}

// TestRequestBodyReads: a body is read whole whether its length is
// declared or streamed, and one past the size cap is refused as
// malformed, declared or streamed.
func TestRequestBodyReads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "settop.json"))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"spec": ` + string(raw) + `, "workers": 1}`
	if len(body) <= 512 {
		t.Fatalf("body of %d bytes does not outgrow the default buffer", len(body))
	}
	postWith := func(r io.Reader) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if status := postWith(strings.NewReader(body)); status != http.StatusAccepted {
		t.Errorf("declared length: status %d, want 202", status)
	}
	// A reader of unknown length makes the client stream the body
	// chunked, without a Content-Length.
	if status := postWith(io.MultiReader(strings.NewReader(body))); status != http.StatusAccepted {
		t.Errorf("chunked: status %d, want 202", status)
	}
	big := `{"model": "settop"}` + strings.Repeat(" ", maxRequestBytes)
	if status, m := post(t, ts, "/jobs", big); status != http.StatusBadRequest || apiErrOf(t, m)["code"] != CodeMalformed {
		t.Errorf("oversized body: status %d (%v), want 400 %s", status, m, CodeMalformed)
	}
	if status := postWith(io.MultiReader(strings.NewReader(big))); status != http.StatusBadRequest {
		t.Errorf("oversized chunked body: status %d, want 400", status)
	}
}

// shortBody yields one byte of a body and then fails, as a connection
// does that declared more and dropped.
type shortBody struct{ sent bool }

func (b *shortBody) Read(p []byte) (int, error) {
	if b.sent {
		return 0, io.ErrUnexpectedEOF
	}
	b.sent = true
	p[0] = '{'
	return 1, nil
}

func (b *shortBody) Close() error { return nil }

// TestRequestBodyPresizeCapped: a body declared at the size cap that
// delivers one byte costs the server the presize cap, not the declared
// length.
func TestRequestBodyPresizeCapped(t *testing.T) {
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		r := httptest.NewRequest(http.MethodPost, "/jobs", nil)
		r.Body, r.ContentLength = &shortBody{}, maxRequestBytes
		if _, aerr := readRequestBody(httptest.NewRecorder(), r); aerr == nil || aerr.Code != CodeMalformed {
			t.Fatalf("short body: %v, want %s", aerr, CodeMalformed)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4*maxPresize {
		t.Errorf("short body declared at %d bytes allocated %d bytes, want at most %d", maxRequestBytes, perRun, 4*maxPresize)
	}
}
