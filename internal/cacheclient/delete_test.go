package cacheclient

// delete_test.go (ISSUE 8): the Delete call's 204/404 handling.

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
)

func TestDeleteAgainstChurnServer(t *testing.T) {
	var deletes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("DELETE /v1/clips/{id}", func(w http.ResponseWriter, r *http.Request) {
		deletes.Add(1)
		if r.PathValue("id") == "99999" {
			http.Error(w, `{"error":"clip 99999 not in repository"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("X-Cache-Invalidated-Bytes", "1024")
		w.WriteHeader(http.StatusNoContent)
	})
	c := newFlakyClient(t, mux, Config{})

	if err := c.Delete(context.Background(), 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// A clip outside the repository surfaces as a 404 StatusError, and
	// later calls still reach the server.
	err := c.Delete(context.Background(), 99999)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("Delete of unknown clip: %v, want 404 StatusError", err)
	}
	if err := c.Delete(context.Background(), 2); err != nil {
		t.Fatalf("Delete after 404: %v", err)
	}
	if got := deletes.Load(); got != 3 {
		t.Fatalf("server saw %d DELETEs, want 3", got)
	}
}
