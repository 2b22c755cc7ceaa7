package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/scenarios"
)

// FuzzSubmit throws arbitrary bodies and query strings at POST /v1/jobs and
// holds every answer to the submit contract: the handler never panics, the
// status is 200 (cache hit or coalesced), 202 (queued), 400 (rejected) or
// 429 (admission refused), and every 4xx carries a JSON body with a
// non-empty "error" field. Admitted jobs run on a stub executor that fails
// at once, so no trial executes and the queue drains as fast as it fills.
// The seeds are the embedded scenario library, each whole, cut in half and
// with every 17th byte garbled, under valid and invalid query strings.
func FuzzSubmit(f *testing.F) {
	for _, name := range scenarios.Names() {
		b, err := scenarios.FS.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		garbled := bytes.Clone(b)
		for i := 3; i < len(garbled); i += 17 {
			garbled[i] ^= 0x20
		}
		f.Add(b, "")
		f.Add(b, "quick=true&seed=7")
		f.Add(b[:len(b)/2], "quick=1")
		f.Add(garbled, "seed=-1")
	}
	f.Add([]byte(tinySpec), "seed=0&quick=false")
	f.Add([]byte(tinySpec), "quick=maybe")
	f.Add([]byte("{}"), "seed=18446744073709551616")
	f.Add([]byte(""), "%zz&quick")

	errStub := errors.New("stub executor")
	s, err := New(Config{
		Store:     filepath.Join(f.TempDir(), "store"),
		Workers:   1,
		Heartbeat: time.Hour,
		Execute: func(*spec.File, uint64, spec.Options) (*spec.Output, error) {
			return nil, errStub
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for query %q: %s", rec.Code, query, rec.Body.Bytes())
		}
		if rec.Code >= 400 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without a JSON error body (%v): %q", rec.Code, err, rec.Body.Bytes())
			}
		}
	})
}
