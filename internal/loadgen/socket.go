package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpserver"
	"hidb/internal/session"
	"hidb/internal/wire"
)

// RunSocket performs the load run over a real TCP socket with real
// sleeps, measuring actual latencies and throughput. With baseURL empty
// it serves the generated dataset itself on a loopback listener (the
// self-contained throughput mode); with a URL it drives an external
// hidb-server, fetching the schema from GET /schema and reading the paid
// query total from GET /stats. Real scheduling makes the Report
// non-deterministic — that is the point; the deterministic artifact
// comes from RunSim.
func RunSocket(cfg Config, baseURL string) (*Report, error) {
	cfg = cfg.withDefaults()
	var schema *dataspace.Schema
	var shutdown func()
	if baseURL == "" {
		ds, err := datagen.ByName(cfg.Dataset, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		k := cfg.K
		if m := ds.Tuples.MaxMultiplicity(); m > k {
			k = m
		}
		local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		h := httpserver.New(local,
			httpserver.WithSessions(session.Config{
				Quota:       cfg.Quota,
				MaxSessions: cfg.Sessions,
			}),
			httpserver.WithShedding(cfg.MaxInFlight))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: h}
		go hs.Serve(ln)
		baseURL = "http://" + ln.Addr().String()
		schema = ds.Schema
		shutdown = func() { hs.Close() }
	}
	if shutdown != nil {
		defer shutdown()
	}
	// One idle connection per session: with http.DefaultTransport's two
	// per host, concurrent sessions would dial and close a connection on
	// most requests, and the run would measure connection churn.
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConns = cfg.Sessions
	tp.MaxIdleConnsPerHost = cfg.Sessions
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp}
	if schema == nil {
		var err error
		schema, err = fetchSchema(hc, baseURL)
		if err != nil {
			return nil, err
		}
	}

	be := &sockBackend{base: baseURL, client: hc}
	d := newDriver(cfg, schema, be)
	for _, c := range d.clients {
		d.warmup(c)
	}
	paid0, _ := fetchQueries(hc, baseURL)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			d.run(c)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	paid1, err := fetchQueries(hc, baseURL)
	if err != nil {
		paid1 = paid0 // keep the report usable; Errors already counts transport trouble
	}
	return d.report(elapsed, paid1-paid0), nil
}

// fetchSchema learns an external server's data space from GET /schema.
func fetchSchema(hc *http.Client, baseURL string) (*dataspace.Schema, error) {
	resp, err := hc.Get(baseURL + "/schema")
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetch schema: %w", err)
	}
	defer drain(resp.Body)
	var msg wire.SchemaMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		return nil, fmt.Errorf("loadgen: decode schema: %w", err)
	}
	schema, _, err := wire.DecodeSchema(msg)
	return schema, err
}

// fetchQueries reads the server's paid-query total from GET /stats.
func fetchQueries(hc *http.Client, baseURL string) (int, error) {
	resp, err := hc.Get(baseURL + "/stats")
	if err != nil {
		return 0, err
	}
	defer drain(resp.Body)
	var msg wire.StatsMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		return 0, err
	}
	return msg.Queries, nil
}

// drain reads a response body to its end before closing it, so the
// connection goes back to the idle pool.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

// sockBackend serves ops over a real HTTP connection.
type sockBackend struct {
	base   string
	client *http.Client
}

func (b *sockBackend) sleep(_ *client, d time.Duration) { time.Sleep(d) }

func (b *sockBackend) do(_ *client, method, path, token string, body []byte, stopAfter int) (opResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return opResult{}, err
	}
	if token != "" {
		wire.SetBearer(req.Header, token)
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return opResult{}, err
	}
	defer resp.Body.Close()

	var buf bytes.Buffer
	if stopAfter > 0 {
		// Read whole lines until the hang-up threshold, then cancel the
		// request — the mid-stream disconnect of a flaky client.
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for lines := 0; lines < stopAfter && sc.Scan(); lines++ {
			buf.Write(sc.Bytes())
			buf.WriteByte('\n')
		}
		cancel()
	} else if _, err := io.Copy(&buf, resp.Body); err != nil {
		return opResult{}, err
	}
	return opResult{
		status:  resp.StatusCode,
		body:    buf.Bytes(),
		elapsed: time.Since(start),
	}, nil
}
