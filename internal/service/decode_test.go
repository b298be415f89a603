package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// referenceDecode is the reference /v1/map decoder: encoding/json with
// unknown fields rejected.
func referenceDecode(body []byte) (MapRequest, error) {
	var req MapRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// sameRequest reports whether two requests are deeply equal, comparing
// edge traffic by bits so -0 and 0 differ.
func sameRequest(a, b MapRequest) bool {
	ae, be := a.Edges, b.Edges
	a.Edges, b.Edges = nil, nil
	if !reflect.DeepEqual(a, b) || (ae == nil) != (be == nil) || len(ae) != len(be) {
		return false
	}
	for i := range ae {
		x, y := ae[i], be[i]
		if x.Src != y.Src || x.Dst != y.Dst ||
			math.Float64bits(x.Volume) != math.Float64bits(y.Volume) ||
			math.Float64bits(x.Msgs) != math.Float64bits(y.Msgs) {
			return false
		}
	}
	return true
}

// canonicalBodies are bodies as clients produce them: json.Marshal and
// json.Encoder (with its trailing newline) output, plus indented and
// hand-written forms. The fast path must accept every one. They are
// small, so the fuzzer can mutate and minimize them quickly.
func canonicalBodies(t testing.TB) [][]byte {
	pins := []int{2, -1, -1, 0}
	reqs := []MapRequest{
		{Workload: "LU", Procs: 64, Seed: 1},
		{Workload: "K-means", Procs: 16, Iters: 3, Algorithm: "multilevel", Kappa: 3, Seed: -7, DeadlineMillis: 2500},
		{Workload: "BT", Procs: 4, Constraint: pins, Allowed: [][]int{{1, 2}, {}, {3}, {0}}},
		benchRequest(5, 3),
		{Procs: 3, Edges: []Edge{{Src: 0, Dst: 2, Volume: -0.0, Msgs: 1e-300}, {Src: 2, Dst: 1, Volume: 1.7976931348623157e308}}},
	}
	var out [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
		ind, err := json.MarshalIndent(r, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ind)
	}
	return append(out,
		[]byte(`{}`),
		[]byte(` { "edges" : [ ] , "procs" : 4 , "constraint" : [ ] , "allowed" : [ [ ] ] } `),
		[]byte(`{"procs":2,"edges":[{},{"msgs":2.5E+3,"volume":-1.25e-2,"dst":1,"src":0}]}`),
		[]byte("{\"deadline_ms\":9223372036854775807,\"seed\":-9223372036854775808,\"workload\":\"DNN\"}\r\n"),
	)
}

// fallbackBodies must be declined by the fast path; each falls back to
// encoding/json, which accepts some of them and rejects the rest.
var fallbackBodies = []string{
	`{"Procs":4,"workload":"LU"}`,              // not an exact key
	`{"workload":null,"procs":4}`,              // null
	`{"procs":4,"procs":5,"workload":"LU"}`,    // duplicate key
	`{"workload":"L\u0055","procs":4}`,         // escape
	"{\"workload\":\"LU\xff\",\"procs\":4}",    // invalid UTF-8
	`{"procs":4,"edges":[{"volume":1e400}]}`,   // float out of range
	`{"procs":1.0,"workload":"LU"}`,            // fraction for an int
	`{"procs":01,"workload":"LU"}`,             // leading zero
	`{"procs":-0,"workload":"LU"}`,             // negative-zero int
	`{"procs":4,"workload":"LU"}{}`,            // trailing value
	`{"procs":4,"workload":"LU","extra":true}`, // unknown field
	`{"procs":99999999999999999999}`,           // int overflow
	`{"procs":"4"}`,                            // wrong type
	`[{"procs":4}]`,                            // not an object
	`{"procs":4,"edges":[{"src":0,"src":1}]}`,  // duplicate edge key
	`{"procs":4,"allowed":[[1,2],null]}`,       // null inner set
	"{\"workload\":\"L\tU\",\"procs\":4}",      // control byte in a string
	`{"procs":4,}`,                             // trailing comma
	``,                                         // empty body
}

func TestDecodeFastPathAcceptsCanonicalBodies(t *testing.T) {
	large, err := json.Marshal(benchRequest(1024, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range append(canonicalBodies(t), large) {
		var fast MapRequest
		if !fastDecodeMapRequest(body, &fast) {
			t.Errorf("body %d declined by the fast path: %.120s", i, body)
			continue
		}
		ref, err := referenceDecode(body)
		if err != nil || !sameRequest(fast, ref) {
			t.Errorf("body %d: fast %+v, reference %+v (%v)", i, fast, ref, err)
		}
	}
}

func TestDecodeFallbackMatchesReference(t *testing.T) {
	for _, body := range fallbackBodies {
		req := MapRequest{Procs: 77}
		if fastDecodeMapRequest([]byte(body), &req) {
			t.Errorf("fast path accepted %q", body)
		}
		if req.Procs != 77 {
			t.Errorf("declined %q but wrote the request", body)
		}
		var got MapRequest
		gotErr := decodeMapRequest([]byte(body), &got)
		want, wantErr := referenceDecode([]byte(body))
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%q: error %v, reference %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !sameRequest(got, want) {
			t.Errorf("%q: decoded %+v, reference %+v", body, got, want)
		}
	}
}

// FuzzDecodeMapRequest is the differential check of the fast path: for
// every input it either declines, or encoding/json also accepts the
// input and decodes the identical request. decodeMapRequest as a whole
// must agree with encoding/json on the error text too.
func FuzzDecodeMapRequest(f *testing.F) {
	for _, b := range canonicalBodies(f) {
		f.Add(b)
	}
	for _, b := range fallbackBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ref, refErr := referenceDecode(body)
		var fast MapRequest
		if fastDecodeMapRequest(body, &fast) {
			if refErr != nil {
				t.Fatalf("fast path accepted a body encoding/json rejects (%v): %q", refErr, body)
			}
			if !sameRequest(fast, ref) {
				t.Fatalf("fast %+v, reference %+v: %q", fast, ref, body)
			}
		} else if !reflect.DeepEqual(fast, MapRequest{}) {
			t.Fatalf("declined but wrote %+v: %q", fast, body)
		}
		var got MapRequest
		err := decodeMapRequest(body, &got)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("error %v, reference %v: %q", err, refErr, body)
		}
		if err == nil && !sameRequest(got, ref) {
			t.Fatalf("decoded %+v, reference %+v: %q", got, ref, body)
		}
	})
}

// TestMapRejectsOversizedBody checks that a body over maxBodyBytes is a
// 400 even when its first JSON value, all encoding/json's Decoder would
// read, is a valid request within the bound. The body declares its
// length, so the handler refuses it without buffering 64 MiB.
func TestMapRejectsOversizedBody(t *testing.T) {
	srv := newTestServer(t, Config{})
	req := httptest.NewRequest("POST", "/v1/map", strings.NewReader(`{"workload":"LU","procs":8,"seed":1}`))
	req.ContentLength = maxBodyBytes + 1
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("status %d, body %s; want 400 request body too large", rec.Code, rec.Body.String())
	}
}
