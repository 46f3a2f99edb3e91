package cacheclient

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"mediacache/internal/api"
	"mediacache/internal/media"
)

// batchHandler serves POST /v1/batch (every item a hit) and per-clip GETs,
// counting each route.
type batchHandler struct {
	batches atomic.Int64
	singles atomic.Int64
	flaky   int32 // fail this many batch calls with 503 first
}

func (h *batchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/batch":
		if atomic.AddInt32(&h.flaky, -1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		h.batches.Add(1)
		var req api.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		resp := api.BatchResponse{Items: make([]api.BatchItemResult, len(req.Items))}
		for i, it := range req.Items {
			resp.Items[i] = api.BatchItemResult{
				Clip: it.Clip, Status: http.StatusOK, Outcome: "hit", Hit: true, SizeBytes: 1024,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	case r.Method == http.MethodGet:
		h.singles.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.Clip{Clip: 1, Kind: "video", SizeBytes: 1024, Outcome: "hit", Hit: true})
	default:
		w.WriteHeader(http.StatusNotFound)
	}
}

func TestGetBatchRoutesThroughBatchEndpoint(t *testing.T) {
	h := &batchHandler{}
	c := newFlakyClient(t, h, Config{})
	ids := []media.ClipID{1, 2, 3}
	res, err := c.GetBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ids) {
		t.Fatalf("got %d results, want %d", len(res), len(ids))
	}
	for i, r := range res {
		if r.Clip != ids[i] || r.Status != http.StatusOK || !r.Hit {
			t.Fatalf("item %d: %+v", i, r)
		}
	}
	if h.batches.Load() != 1 || h.singles.Load() != 0 {
		t.Fatalf("routes: %d batch, %d single", h.batches.Load(), h.singles.Load())
	}
}

func TestGetBatchRetriesTransientFailures(t *testing.T) {
	h := &batchHandler{flaky: 2}
	c := newFlakyClient(t, h, Config{})
	if _, err := c.GetBatch(context.Background(), []media.ClipID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := c.Retries(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if h.batches.Load() != 1 {
		t.Fatalf("batch served %d times, want 1", h.batches.Load())
	}
}
