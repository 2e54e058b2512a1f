package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"

	"repro"
	"repro/internal/heatmap"
	"repro/internal/tuple"
)

// httpServer serves a handler on a loopback port.
type httpServer struct {
	srv  *http.Server
	base string
	done sync.WaitGroup
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String()}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *httpServer) Close() {
	s.srv.Close()
	s.done.Wait()
}

// httpClient is one client connection to the HTTP API.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *httpClient) Close() { c.c.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct {
	code int
	body string
}

func (e statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func (c *httpClient) do(req *http.Request, out any) error {
	resp, err := c.c.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return statusError{resp.StatusCode, string(bytes.TrimSpace(body))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// point sends GET /v1/query.
func (c *httpClient) point(r repro.Request) (float64, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/query?pollutant=CO2&t="+ff(r.T)+"&x="+ff(r.X)+"&y="+ff(r.Y), nil)
	if err != nil {
		return 0, err
	}
	var out struct {
		Value float64 `json:"value"`
	}
	err = c.do(req, &out)
	return out.Value, err
}

type routePoint struct {
	T float64 `json:"t"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// route sends POST /v1/query/continuous and returns the per-point values.
func (c *httpClient) route(pts []repro.Request) ([]float64, error) {
	body := struct {
		Points []routePoint `json:"points"`
	}{make([]routePoint, len(pts))}
	for i, p := range pts {
		body.Points[i] = routePoint{p.T, p.X, p.Y}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/query/continuous?pollutant=CO2", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var out struct {
		Values []struct {
			Value float64 `json:"value"`
		} `json:"values"`
	}
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	if len(out.Values) != len(pts) {
		return nil, fmt.Errorf("route: %d values for %d points", len(out.Values), len(pts))
	}
	vs := make([]float64, len(pts))
	for i, v := range out.Values {
		vs[i] = v.Value
	}
	return vs, nil
}

// heatmap sends GET /v1/heatmap.
func (c *httpClient) heatmap(t float64) (*heatmap.Grid, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/heatmap?pollutant=CO2&cols="+strconv.Itoa(heatCells)+"&rows="+strconv.Itoa(heatCells)+"&t="+ff(t), nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Grid *heatmap.Grid `json:"grid"`
	}
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	if out.Grid == nil {
		return nil, errors.New("heatmap: no grid")
	}
	return out.Grid, nil
}

// ingest sends POST /v1/ingest.
func (c *httpClient) ingest(b tuple.Batch) error {
	body, err := json.Marshal(struct {
		Tuples []tuple.Raw `json:"tuples"`
	}{b})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/ingest?pollutant=CO2", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// counted returns an upload function that counts attempts and failures
// in errs.
func (c *httpClient) counted(errs *errCount) func(tuple.Batch) error {
	return func(b tuple.Batch) error {
		errs.attempted.Add(1)
		err := c.ingest(b)
		if err != nil {
			errs.fail(err)
		}
		return err
	}
}
