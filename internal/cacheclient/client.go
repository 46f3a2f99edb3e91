// Package cacheclient is a resilient HTTP client for the cacheserver /v1
// API: the mobile device's view of a flaky wireless link. Every call
// retries transient failures (network errors, 5xx, 429) with exponential
// backoff and deterministic seeded jitter, applies a per-attempt timeout,
// and routes through a simple circuit breaker so a dead server is probed
// instead of hammered. The jitter stream comes from the same splittable
// PRNG as the simulators (internal/randutil), so a client with a fixed
// seed backs off on an exactly reproducible schedule — chaos experiments
// against `cacheserver -faults` are replayable end to end.
package cacheclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/media"
	"mediacache/internal/randutil"
)

// Defaults for Config zero values.
const (
	DefaultMaxAttempts    = 8
	DefaultBaseBackoff    = 10 * time.Millisecond
	DefaultMaxBackoff     = 2 * time.Second
	DefaultAttemptTimeout = 5 * time.Second
)

// Observer receives client resilience events. Implementations must be
// safe for concurrent use; internal/obs bridges them into the metrics
// registry.
type Observer interface {
	// Retry reports that attempt (1-based) failed with err and the client
	// will sleep delay before the next attempt.
	Retry(attempt int, delay time.Duration, err error)
	// BreakerChange reports a circuit-breaker state transition.
	BreakerChange(from, to BreakerState)
}

// Config configures a Client. The zero value of every field selects a
// sensible default; only BaseURL is required.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8377".
	BaseURL string
	// HTTPClient issues the requests; http.DefaultClient when nil.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call (first attempt included).
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt.
	BaseBackoff time.Duration
	// MaxBackoff caps the delay (Retry-After hints included).
	MaxBackoff time.Duration
	// AttemptTimeout bounds each individual attempt.
	AttemptTimeout time.Duration
	// Seed feeds the deterministic jitter stream.
	Seed uint64
	// ClientID, when set, is stamped into the X-Client-ID header of every
	// request so server request logs (cacheserver -reqlog) can sessionize
	// this client's traffic per identity.
	ClientID string
	// Breaker configures the circuit breaker.
	Breaker BreakerConfig
	// Observer receives retry and breaker events; nil discards.
	Observer Observer
	// Sleep substitutes the backoff sleep, for tests; nil uses a
	// context-aware real sleep.
	Sleep func(context.Context, time.Duration) error
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = DefaultBaseBackoff
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = DefaultAttemptTimeout
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client calls the cacheserver /v1 API with retries, backoff and a
// circuit breaker. Safe for concurrent use.
type Client struct {
	cfg     Config
	base    string
	breaker *breaker

	mu  sync.Mutex
	src *randutil.Source // jitter stream; guarded by mu

	retries uint64 // total retry sleeps, guarded by mu
}

// New builds a client for the server at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("cacheclient: BaseURL is required")
	}
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:  cfg,
		base: strings.TrimRight(cfg.BaseURL, "/"),
		src:  randutil.NewSource(cfg.Seed).Split("cacheclient"),
	}
	c.breaker = newBreaker(cfg.Breaker, cfg.Observer)
	return c, nil
}

// Retries returns the total number of retry sleeps the client has taken.
func (c *Client) Retries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

// Breaker returns the circuit breaker's current state.
func (c *Client) Breaker() BreakerState { return c.breaker.State() }

// BreakerOpens returns how many times the breaker has tripped open.
func (c *Client) BreakerOpens() uint64 { return c.breaker.Opens() }

// StatusError reports a non-2xx response that exhausted its retries (or
// is not retryable).
type StatusError struct {
	Status int
	Body   string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("cacheclient: server answered %d: %s", e.Status, e.Body)
}

// retryable reports whether a response status is worth retrying: server
// errors model the flaky link, 429 is an explicit back-off request.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// backoff returns the delay before attempt n (1-based): an exponential
// base with up to 50% deterministic jitter, capped at MaxBackoff, floored
// at any Retry-After hint the server sent.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := float64(c.cfg.BaseBackoff) * math.Pow(2, float64(attempt-1))
	if max := float64(c.cfg.MaxBackoff); d > max {
		d = max
	}
	c.mu.Lock()
	jitter := 0.5 + 0.5*c.src.Float64()
	c.retries++
	c.mu.Unlock()
	delay := time.Duration(d * jitter)
	if retryAfter > delay {
		delay = retryAfter
	}
	if delay > c.cfg.MaxBackoff {
		delay = c.cfg.MaxBackoff
	}
	return delay
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds ("120") or HTTP-date ("Fri, 08 Aug 2026 12:00:00 GMT",
// evaluated against now). It returns 0 when absent, malformed, or already
// in the past; callers clamp the hint to MaxBackoff via backoff().
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	// http.ParseTime tries the three RFC 9110 HTTP-date layouts (IMF-fixdate,
	// RFC 850, ANSI C asctime).
	when, err := http.ParseTime(h)
	if err != nil {
		return 0
	}
	d := when.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}

// do issues method path, retrying transient failures, and decodes a 2xx
// JSON body into out (skipped when out is nil). It returns the last error
// once MaxAttempts is exhausted, ctx expires, or a non-retryable status
// arrives.
func (c *Client) do(ctx context.Context, method, path string, out interface{}) error {
	return c.doBody(ctx, method, path, nil, out)
}

// doBody is do with a JSON request body (nil for bodiless calls). The body
// bytes are replayed on every retry attempt.
func (c *Client) doBody(ctx context.Context, method, path string, body []byte, out interface{}) error {
	return c.run(ctx, func(actx context.Context) (int, time.Duration, error) {
		return c.attempt(actx, method, path, body, out)
	})
}

// run drives one logical call through the breaker/retry/backoff machinery.
// attempt performs a single exchange, returning the HTTP status (0 for
// transport errors) and any Retry-After hint.
func (c *Client) run(ctx context.Context, attempt func(context.Context) (int, time.Duration, error)) error {
	var lastErr error
	for n := 1; ; n++ {
		if err := c.breaker.Allow(ctx, c.cfg.Sleep); err != nil {
			return err
		}
		status, retryAfter, err := attempt(ctx)
		if err == nil {
			c.breaker.Success()
			return nil
		}
		lastErr = err
		// Context errors are terminal: the caller's deadline, not the link.
		if ctx.Err() != nil {
			return lastErr
		}
		if status != 0 && !retryable(status) {
			c.breaker.Success() // the server answered; the link is fine
			return lastErr
		}
		c.breaker.Failure()
		if n >= c.cfg.MaxAttempts {
			return fmt.Errorf("cacheclient: %d attempts exhausted: %w", n, lastErr)
		}
		delay := c.backoff(n, retryAfter)
		if obs := c.cfg.Observer; obs != nil {
			obs.Retry(n, delay, lastErr)
		}
		if err := c.cfg.Sleep(ctx, delay); err != nil {
			return lastErr
		}
	}
}

// attempt is one HTTP exchange. status is 0 for transport errors;
// retryAfter carries the server's back-off hint on failures.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out interface{}) (status int, retryAfter time.Duration, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.cfg.ClientID != "" {
		req.Header.Set(api.ClientIDHeader, c.cfg.ClientID)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
			&StatusError{Status: resp.StatusCode, Body: strings.TrimSpace(string(msg))}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, 0, fmt.Errorf("cacheclient: decoding %s: %w", path, err)
		}
	}
	return resp.StatusCode, 0, nil
}

// ClipResult is the response of GET /v1/clips/{id}; the wire contract
// lives in internal/api.
type ClipResult = api.Clip

// Clip requests clip id, riding out transient faults.
func (c *Client) Clip(ctx context.Context, id media.ClipID) (ClipResult, error) {
	var out ClipResult
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/clips/%d", id), &out)
	return out, err
}

// Stats is the response of GET /v1/stats; the wire contract lives in
// internal/api.
type Stats = api.Stats

// Stats fetches the server's accumulated statistics, aggregated over every
// shard on a sharded server.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", &out)
	return out, err
}

// Shards fetches the per-shard occupancy and hit statistics of a sharded
// server (GET /v1/shards), in shard-index order.
func (c *Client) Shards(ctx context.Context) ([]api.Shard, error) {
	var out api.Shards
	err := c.do(ctx, http.MethodGet, "/v1/shards", &out)
	return out.Shards, err
}

// Batch submits an ordered list of clip references as one POST /v1/batch
// call, riding out transient faults like every other call (the whole batch
// retries as a unit; the server's per-item semantics make replays safe for
// the simulated cache). The error is non-nil only for whole-batch failures;
// per-item failures come back inside the response with their status codes.
func (c *Client) Batch(ctx context.Context, items []api.BatchItem) (api.BatchResponse, error) {
	var out api.BatchResponse
	body, err := json.Marshal(api.BatchRequest{Items: items})
	if err != nil {
		return out, err
	}
	err = c.doBody(ctx, http.MethodPost, "/v1/batch", body, &out)
	return out, err
}

// GetBatch requests a list of clips in one round trip via POST /v1/batch
// and returns one result per id, positionally.
func (c *Client) GetBatch(ctx context.Context, ids []media.ClipID) ([]api.BatchItemResult, error) {
	items := make([]api.BatchItem, len(ids))
	for i, id := range ids {
		items[i] = api.BatchItem{Clip: id}
	}
	resp, err := c.Batch(ctx, items)
	if err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// Delete invalidates clip id's cached bytes (DELETE /v1/clips/{id}),
// riding out transient faults. Idempotent on the server: deleting a
// non-resident clip succeeds. A clip outside the repository surfaces as a
// *StatusError with Status 404.
func (c *Client) Delete(ctx context.Context, id media.ClipID) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/clips/%d", id), nil)
}

// Healthz reports whether the server is live and internally consistent.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil)
}

// Reset clears the server's cache, statistics and policy state.
func (c *Client) Reset(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/reset", nil)
}
