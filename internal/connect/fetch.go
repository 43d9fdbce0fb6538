package connect

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"time"
)

// FetchOptions parameterises one HTTP-fetch source.
type FetchOptions struct {
	// Timeout bounds each individual attempt (0 = 10s). The caller's
	// context bounds the whole fetch including backoff waits.
	Timeout time.Duration
	// Retries is how many times a retryable failure (network error or 5xx)
	// is re-attempted after the first try (0 = 2). Negative disables
	// retries. 4xx statuses never retry — the request itself is wrong.
	Retries int
	// Backoff is the wait before the first retry, doubling per attempt
	// (0 = 250ms). Context cancellation interrupts the wait immediately.
	Backoff time.Duration
	// Client overrides the HTTP client (nil = a private default). Tests
	// inject one; production uses the default.
	Client *http.Client
}

// Fetch pulls one http(s) URL and returns its body, read in full under the
// cap of a direct upload (maxBytes), for Read to decode as an upload's
// is: a cancelled or failed fetch yields nothing, so the caller's knowledge
// base is untouched by construction. All failure modes wrap ErrFetchFailed
// except a body past the cap (ErrTooLarge) or cut off mid-read
// (ErrBadFormat); a fetch the caller's context cancelled wraps
// context.Canceled too, so a run cancelled mid-fetch reads as cancelled, not
// failed.
func Fetch(ctx context.Context, rawURL string, opts FetchOptions) ([]byte, error) {
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("%w: URL %q must be http or https", ErrFetchFailed, rawURL)
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	retries := opts.Retries
	if retries == 0 {
		retries = 2
	} else if retries < 0 {
		retries = 0
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}

	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			wait := backoff << (attempt - 1)
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %w", ErrFetchFailed, ctx.Err())
			case <-time.After(wait):
			}
		}
		body, retryable, err := fetchOnce(ctx, client, rawURL, timeout)
		if err == nil {
			return body, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: %w", ErrFetchFailed, ctx.Err())
		}
	}
	return nil, fmt.Errorf("%w: %d attempts: %v", ErrFetchFailed, retries+1, lastErr)
}

// fetchOnce is one attempt: request with a per-attempt deadline, check the
// status, read the body. retryable marks network errors and 5xx statuses.
func fetchOnce(ctx context.Context, client *http.Client, rawURL string, timeout time.Duration) (_ []byte, retryable bool, _ error) {
	attemptCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrFetchFailed, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("%w: %w", ErrFetchFailed, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode >= 500:
		return nil, true, fmt.Errorf("%w: %s answered %s", ErrFetchFailed, rawURL, resp.Status)
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		return nil, false, fmt.Errorf("%w: %s answered %s", ErrFetchFailed, rawURL, resp.Status)
	}
	// A body cut off by the attempt deadline surfaces as ErrBadFormat and is
	// not retried — a larger timeout, not another attempt, is the fix.
	body, err := readCapped(resp.Body)
	return body, false, err
}
