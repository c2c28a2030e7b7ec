package server

import (
	"compress/gzip"
	"io"
	"net/http"
	"strings"
	"testing"

	"webbase/internal/core"
)

// rawClient disables Go's transparent decompression so tests see the
// wire bytes exactly as sent.
var rawClient = &http.Client{Transport: &http.Transport{DisableCompression: true}}

// TestQueryStreamGzip: a stream requested with Accept-Encoding: gzip
// arrives compressed and decompresses to byte-identical NDJSON — same
// request ID pinned, only the run-dependent trailer stats normalized.
// The coding name matches in any case, and q=0 ("not acceptable")
// refuses it.
func TestQueryStreamGzip(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})

	fetch := func(acceptEncoding string, gzipped bool) []map[string]any {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(wideQuery))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "r-gzip-test")
		if acceptEncoding != "" {
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		resp, err := rawClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		body := io.Reader(resp.Body)
		if gzipped {
			if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("Accept-Encoding %q: Content-Encoding = %q, want gzip", acceptEncoding, enc)
			}
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			body = zr
		} else if enc := resp.Header.Get("Content-Encoding"); enc != "" {
			t.Fatalf("Accept-Encoding %q: got Content-Encoding %q, want none", acceptEncoding, enc)
		}
		return decodeLines(t, body)
	}

	plain := normalizeStream(t, fetch("", false))
	for _, tc := range []struct {
		acceptEncoding string
		gzipped        bool
	}{
		{"gzip", true},
		{"GZIP", true},
		{"GZIP;q=1", true},
		{"deflate, gzip;q=1.0", true},
		{"gzip;q=0", false},
		{"identity", false},
	} {
		if got := normalizeStream(t, fetch(tc.acceptEncoding, tc.gzipped)); got != plain {
			t.Fatalf("Accept-Encoding %q: stream decodes differently:\nplain %s\n  got %s", tc.acceptEncoding, plain, got)
		}
	}
}

// TestQueryStreamGzipResume: compression composes with resume — a
// compressed resumed stream stitches byte-identically too.
func TestQueryStreamGzipResume(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	lines, token := fullStream(t, ts.URL, wideQuery)
	want := normalizeStream(t, deepCopyLines(t, lines))

	k := 1
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(wideQuery))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	req.Header.Set("Last-Event-Index", "1")
	req.Header.Set("X-Resume-Token", token)
	resp, err := rawClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	stitched := append(deepCopyLines(t, lines[:k+1]), decodeLines(t, zr)...)
	if got := normalizeStream(t, stitched); got != want {
		t.Fatalf("gzip resume stitches differently:\n got %s\nwant %s", got, want)
	}
}

// TestMetricsGzip: /metrics honors Accept-Encoding: gzip and the
// decompressed page is byte-identical to the plain one.
func TestMetricsGzip(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	// Put something in the registry so the page is non-trivial.
	resp := postQuery(t, ts.URL, "", wideQuery)
	io.Copy(io.Discard, resp.Body)

	get := func(gzipped bool) string {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if gzipped {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := rawClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := io.Reader(resp.Body)
		if gzipped {
			if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("Content-Encoding = %q, want gzip", enc)
			}
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			body = zr
		}
		raw, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	plain := get(false)
	compressed := get(true)
	if plain != compressed {
		t.Fatalf("gzip /metrics decompresses differently:\nplain:\n%s\ngzip:\n%s", plain, compressed)
	}
	if !strings.Contains(plain, "server_queries_total") {
		t.Fatal("metrics page is empty")
	}
}
