package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sma/internal/metrics"
)

// JobClient is the client side of /v1/jobs on either role: submit a job,
// poll it to a terminal status, fetch its result stream, and scrape
// /metrics. Views decode into a value the caller supplies, so a
// coordinator's cluster.JobView keeps its cluster block.
type JobClient struct {
	URL string
	// Poll spaces status polls (0 = 25ms).
	Poll time.Duration
}

// Settler is a decoded job view that knows when its job has settled;
// JobView and every view embedding it qualify.
type Settler interface{ Settled() bool }

// Submit posts req to /v1/jobs and returns the accepted job's id, taken
// from its Location. A non-nil view receives the job's view.
func (c JobClient) Submit(ctx context.Context, req any, view any) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if err := expectStatus(resp, http.StatusAccepted); err != nil {
		return "", err
	}
	id, ok := strings.CutPrefix(resp.Header.Get("Location"), "/v1/jobs/")
	if !ok || id == "" {
		return "", fmt.Errorf("accepted job has Location %q", resp.Header.Get("Location"))
	}
	if view == nil {
		return id, nil
	}
	return id, json.NewDecoder(resp.Body).Decode(view)
}

// Get decodes the JSON body of GET path, which must answer 200.
func (c JobClient) Get(ctx context.Context, path string, v any) error {
	resp, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := expectStatus(resp, http.StatusOK); err != nil {
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Await polls job id until it settles, decoding each view into view.
func (c JobClient) Await(ctx context.Context, id string, view Settler) error {
	poll := c.Poll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	for {
		if err := c.Get(ctx, "/v1/jobs/"+id, view); err != nil {
			return err
		}
		if view.Settled() {
			return nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Run submits req and awaits the job's terminal view.
func (c JobClient) Run(ctx context.Context, req any, view Settler) error {
	id, err := c.Submit(ctx, req, view)
	if err != nil {
		return err
	}
	return c.Await(ctx, id, view)
}

// Result downloads a finished job's SMP1 result stream.
func (c JobClient) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.get(ctx, "/v1/jobs/"+id+"/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := expectStatus(resp, http.StatusOK); err != nil {
		return nil, fmt.Errorf("result stream: %w", err)
	}
	return io.ReadAll(resp.Body)
}

// Scrape reads the samples of /metrics.
func (c JobClient) Scrape(ctx context.Context) ([]metrics.Sample, error) {
	resp, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := expectStatus(resp, http.StatusOK); err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	return metrics.Read(resp.Body)
}

// Counters scrapes /metrics into a name → value map of every unlabeled
// series (labeled families and histograms are skipped).
func (c JobClient) Counters(ctx context.Context) (map[string]int64, error) {
	samples, err := c.Scrape(ctx)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		if s.Labels == nil {
			out[s.Name] = int64(s.Value)
		}
	}
	return out, nil
}

func (c JobClient) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL+path, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// expectStatus turns an unexpected status into an error carrying the
// start of the response body (the endpoints' JSON error text).
func expectStatus(resp *http.Response, want int) error {
	if resp.StatusCode == want {
		return nil
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) //smavet:allow errdiscard -- error-path diagnostics only
	return fmt.Errorf("HTTP %d (want %d): %s", resp.StatusCode, want, bytes.TrimSpace(b))
}
