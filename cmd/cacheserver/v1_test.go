package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mediacache/internal/api"
	"mediacache/internal/policy/registry"
)

// TestV1Routes drives the full request cycle through the versioned paths.
func TestV1Routes(t *testing.T) {
	_, ts := newTestServer(t)
	var clip api.Clip
	if resp := getJSON(t, ts.URL+"/v1/clips/2", &clip); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/clips/2 status = %d", resp.StatusCode)
	}
	if clip.Hit || clip.Outcome != "miss-cached" {
		t.Fatalf("first v1 request = %+v, want miss-cached", clip)
	}
	var st api.Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests != 1 {
		t.Fatalf("v1 stats = %+v, want 1 request", st)
	}
	var res api.Resident
	getJSON(t, ts.URL+"/v1/resident", &res)
	if len(res.Clips) != 1 {
		t.Fatalf("v1 resident = %+v, want 1 clip", res)
	}
	resp, err := http.Post(ts.URL+"/v1/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /v1/reset status = %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests != 0 {
		t.Fatalf("v1 stats after reset = %+v", st)
	}
}

// TestV1MethodNotAllowed checks the automatic 405s of the method patterns.
func TestV1MethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/clips/1", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/clips/1 status = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/reset", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reset status = %d", resp.StatusCode)
	}
}

// TestV1ErrorEnvelope pins the uniform {"error": "..."} JSON error shape.
func TestV1ErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/clips/notanumber", "/v1/clips/99999"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", path, ct)
		}
		var envelope api.Error
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("%s: error body is not the JSON envelope: %v", path, err)
		}
		resp.Body.Close()
		if envelope.Error == "" {
			t.Errorf("%s: empty error message", path)
		}
	}
}

// TestV1Policies checks the registry-backed discovery endpoint.
func TestV1Policies(t *testing.T) {
	_, ts := newTestServer(t)
	var pol api.Policies
	if resp := getJSON(t, ts.URL+"/v1/policies", &pol); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/policies status = %d", resp.StatusCode)
	}
	if pol.Current != "DYNSimple(K=2)" {
		t.Errorf("current policy = %q", pol.Current)
	}
	want := registry.Usages()
	if len(pol.Policies) != len(want) {
		t.Fatalf("policies = %v, want %v", pol.Policies, want)
	}
	for i := range want {
		if pol.Policies[i] != want[i] {
			t.Fatalf("policies[%d] = %q, want %q", i, pol.Policies[i], want[i])
		}
	}
}

// TestV1Shards checks the per-shard listing: one entry per shard in index
// order, capacities summing to the stats capacity, and requests summing to
// the aggregate count.
func TestV1Shards(t *testing.T) {
	cfg := testConfig()
	cfg.shards = 4
	_, ts := newTestServerConfig(t, cfg)
	for i := 1; i <= 20; i++ {
		resp, err := http.Get(ts.URL + "/v1/clips/" + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var sh api.Shards
	if resp := getJSON(t, ts.URL+"/v1/shards", &sh); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/shards status = %d", resp.StatusCode)
	}
	if len(sh.Shards) != 4 {
		t.Fatalf("shard count = %d, want 4", len(sh.Shards))
	}
	var st api.Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Shards != 4 {
		t.Errorf("stats shards field = %d, want 4", st.Shards)
	}
	var requests, hits uint64
	var capacity, used int64
	for i, s := range sh.Shards {
		if s.Shard != i {
			t.Errorf("shard %d reports index %d", i, s.Shard)
		}
		requests += s.Requests
		hits += s.Hits
		capacity += s.CapacityBytes
		used += s.UsedBytes
		if s.UsedBytes > s.CapacityBytes {
			t.Errorf("shard %d: used %d > capacity %d", i, s.UsedBytes, s.CapacityBytes)
		}
	}
	if requests != st.Requests || hits != st.Hits {
		t.Errorf("per-shard sums (%d req, %d hits) != aggregate (%d, %d)",
			requests, hits, st.Requests, st.Hits)
	}
	if capacity != st.CapacityBytes {
		t.Errorf("per-shard capacity sum %d != aggregate %d", capacity, st.CapacityBytes)
	}
	if used != st.UsedBytes {
		t.Errorf("per-shard used sum %d != aggregate %d", used, st.UsedBytes)
	}
}

// TestV1StatsShardsFieldOmitted pins the single-shard wire format: the raw
// /v1/stats body must not grow a shards key, so pre-sharding clients (and
// goldens) see byte-identical responses.
func TestV1StatsShardsFieldOmitted(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"shards"`) {
		t.Fatalf("single-shard stats body contains a shards key:\n%s", body)
	}
}
