package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRunRequestSizeBounds: samples and iterations above the /v1 bounds are
// rejected before a run allocates anything; the bounds themselves pass.
func TestRunRequestSizeBounds(t *testing.T) {
	ok := RunRequest{Gamma: 0.001, Samples: maxRunSamples, Iterations: maxRunIterations}
	if err := ok.validate(); err != nil {
		t.Fatalf("request at the bounds rejected: %v", err)
	}
	for _, r := range []RunRequest{
		{Gamma: 0.001, Samples: 1_000_000_000_000},
		{Gamma: 0.001, Samples: maxRunSamples + 1},
		{Gamma: 0.001, Iterations: maxRunIterations + 1},
	} {
		if err := r.validate(); err == nil {
			t.Errorf("validate(%+v) = nil, want a size error", r)
		}
	}
}

// TestOnlineEnableSizeBounds: the online spec shares the run-size bounds.
func TestOnlineEnableSizeBounds(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"huge","engine":{"kind":"rowstore"}}`)
	code, env := call(t, client, "POST", ts.URL+"/v1/tenants/huge/online", "application/json",
		`{"gamma":0.001,"samples":1000000000000}`)
	if code != http.StatusBadRequest || env.Error == nil || !strings.Contains(env.Error.Message, "samples") {
		t.Fatalf("online enable with huge samples: %d %+v, want a 400 naming samples", code, env.Error)
	}
}

// FuzzRunRequest drives the /v1 run-submission decoding and validation on
// arbitrary bodies: no panic, and any accepted request lowers to valid loop
// options within the run-size bounds.
func FuzzRunRequest(f *testing.F) {
	f.Add(testRunBody)
	f.Add(`{"gamma":0.0008,"samples":8,"seed":7,"shards":4}`)
	f.Add(`{"gamma":0.002,"samples":1000000000000,"iterations":3}`)
	f.Add(`{"gamma":0.001,"designers":["advisor","ilp"],"member_timeout":"2s","metric":"separate"}`)
	f.Fuzz(func(t *testing.T, body string) {
		var req RunRequest
		if err := decodeJSON(strings.NewReader(body), &req); err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return
		}
		if err := req.Options().Validate(); err != nil {
			t.Fatalf("accepted %q, but its options are invalid: %v", body, err)
		}
		if req.Samples > maxRunSamples || req.Iterations > maxRunIterations {
			t.Fatalf("accepted %q beyond the run-size bounds", body)
		}
	})
}
