package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// newLimitServer serves the cluster HTTP API of a one-node cluster over
// an empty in-memory CO2 store.
func newLimitServer(t *testing.T) *httptest.Server {
	t.Helper()
	st := store.MustOpenMemory(100)
	e, err := NewMultiEngine(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	cells, err := cluster.Cells(geo.Rect{Max: geo.Point{X: 1000, Y: 1000}}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: []string{"node-0:8081"}, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		Ring: ring, Self: 0, Local: e, Transports: make([]cluster.Transport, 1), Default: tuple.CO2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	srv := httptest.NewServer(NewClusterAPI(e, node))
	t.Cleanup(srv.Close)
	return srv
}

// TestHTTPOversizedBodiesGet413 posts a body one byte past maxBodyBytes
// to every handler that decodes one: each must answer 413 without
// reading further, and the server must keep serving afterwards.
func TestHTTPOversizedBodiesGet413(t *testing.T) {
	srv := newLimitServer(t)

	// The cap admits a full batch of wire.MaxBatchItems items with every
	// number at full float64 precision.
	item := `{"t": -1.2345678901234567e+06, "x": -1.2345678901234567e+06, "y": -1.2345678901234567e+06, "pollutant": "CO2"}, `
	if full := len(`{"requests": []}`) + wire.MaxBatchItems*len(item); full > maxBodyBytes {
		t.Fatalf("a full batch needs %d bytes, over the %d-byte cap", full, maxBodyBytes)
	}

	// A JSON array left open, padded with whitespace past the cap: the
	// decoder keeps reading until the limit stops it.
	body := append([]byte(`{"requests": [`), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	for _, path := range []string{
		"/v1/query/batch",
		"/v1/query/continuous",
		"/v1/route/summary",
		"/v1/ingest",
		"/v1/cluster/join",
	} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body answered %d, want 413", path, resp.StatusCode)
		}
	}

	// Still serving: a normal upload and a query of it succeed.
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"tuples": [{"t": 1, "x": 10, "y": 10, "s": 400}, {"t": 2, "x": 900, "y": 900, "s": 420}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after the oversized bodies: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status after the oversized bodies: %d", resp.StatusCode)
	}
}

// TestHTTPOverlongListsGet413 posts one item past wire.MaxBatchItems to
// each list-taking handler. The body itself is small (about 1.3 MB, far
// under maxBodyBytes), but a clustered node would forward the list as
// one batch frame the binary codec cannot encode: each handler must
// answer 413, while a list at the cap is accepted.
func TestHTTPOverlongListsGet413(t *testing.T) {
	srv := newLimitServer(t)
	list := func(key string, n int) []byte {
		items := strings.TrimSuffix(strings.Repeat(`{"t":1,"x":1,"y":1},`, n), ",")
		return []byte(`{"` + key + `":[` + items + `]}`)
	}
	for _, c := range []struct{ path, key string }{
		{"/v1/query/batch", "requests"},
		{"/v1/query/continuous", "points"},
		{"/v1/route/summary", "fixes"},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", bytes.NewReader(list(c.key, wire.MaxBatchItems+1)))
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d items answered %d, want 413", c.path, wire.MaxBatchItems+1, resp.StatusCode)
		}
	}
	// At the cap the batch is admitted (the empty store answers every
	// item with its own error, inside a 200).
	resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader(list("requests", wire.MaxBatchItems)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch at the cap answered %d, want 200", resp.StatusCode)
	}
}
