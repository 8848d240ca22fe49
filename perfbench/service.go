package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/obs"
	"dayu/internal/optimizer"
	"dayu/internal/serve"
	"dayu/internal/trace"
)

// service is one serve.Server mounted on a loopback HTTP server.
type service struct {
	srv  *serve.Server
	http *httptest.Server
	reg  *obs.Registry
}

// startService builds the server from the Config `dayu serve` builds
// from its default flags (poll 2s, 1 shard, no history, ingest queue
// 64, and with walDir set the default WAL options: fsync interval
// 100ms, 4 MiB segments), wrapped in the CLI's 30s request timeout
// except for the SSE stream.
func startService(dir, walDir string) (*service, error) {
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Dir:        dir,
		Registry:   reg,
		SDGOptions: analyzer.Options{PageSize: 4096},
		PlanOptions: optimizer.LocalityOptions{
			FastTier: "nvme", Nodes: 2, StageOutDisposable: true,
		},
		Poll:          2 * time.Second,
		IngestQueue:   64,
		MaxBodyBytes:  32 << 20,
		Shards:        1,
		HistoryRetain: 64,
	}
	if walDir != "" {
		policy, err := serve.ParseFsyncPolicy("interval")
		if err != nil {
			return nil, err
		}
		cfg.WALDir = walDir
		cfg.WAL = serve.WALOptions{Fsync: policy, FsyncInterval: 100 * time.Millisecond, SegmentBytes: 4 << 20}
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	s.Start()
	mux := http.NewServeMux()
	mux.Handle("/v1/live/events", s)
	mux.Handle("/", http.TimeoutHandler(s, 30*time.Second, "request timed out\n"))
	return &service{srv: s, http: httptest.NewServer(mux), reg: reg}, nil
}

// close stops the HTTP side, then drains and closes the server.
func (sv *service) close() {
	sv.http.CloseClientConnections()
	sv.http.Close()
	sv.srv.Close()
}

// histMeanMS is the mean of a nanosecond histogram over the interval
// between two registry snapshots, in ms.
func histMeanMS(a, b obs.Snapshot, name string) float64 {
	n := b.Histograms[name].Count - a.Histograms[name].Count
	if n == 0 {
		return 0
	}
	return ms((b.Histograms[name].Sum - a.Histograms[name].Sum) / n)
}

// ratio is hits/(hits+misses) of a serve cache between two snapshots.
func ratio(a, b obs.Snapshot, cache string) float64 {
	h := b.Counters[obs.Name("dayu_serve_cache_hits_total", "cache", cache)] - a.Counters[obs.Name("dayu_serve_cache_hits_total", "cache", cache)]
	m := b.Counters[obs.Name("dayu_serve_cache_misses_total", "cache", cache)] - a.Counters[obs.Name("dayu_serve_cache_misses_total", "cache", cache)]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// get fetches one endpoint, returning its body and snapshot header.
func get(c *http.Client, url string) ([]byte, string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, resp.Header.Get("X-Dayu-Snapshot"), nil
}

// batchBodies is the batch CLI's answer over dir: the FTG and SDG as
// serve renders their JSON, and the diagnose JSON.
func batchBodies(dir string) (ftg, sdg, diag []byte, err error) {
	traces, err := trace.LoadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := trace.LoadManifest(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if ftg, err = json.MarshalIndent(analyzer.BuildFTG(traces, m), "", " "); err != nil {
		return nil, nil, nil, err
	}
	if sdg, err = json.MarshalIndent(analyzer.BuildSDG(traces, m, analyzer.Options{PageSize: 4096}), "", " "); err != nil {
		return nil, nil, nil, err
	}
	diag, err = diagnose.EncodeJSON(diagnose.Analyze(traces, m, diagnose.Thresholds{}))
	return ftg, sdg, diag, err
}

// httpClient returns a client that holds at most one connection.
func httpClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// checkCounts compares this run's exact counters with the previous run
// of the same workload, seed and length in this checkout, and flags
// any that differ. Counters named in o.inexact are left out.
func checkCounts(env *runEnv, name string, o *outcome) {
	path := filepath.Join(filepath.Dir(env.dir), "counts", fmt.Sprintf("%s-seed%d-%ds.json", name, env.seed, int(env.duration.Seconds())))
	cur := map[string]int64{}
	for k, v := range o.counts {
		if !slices.Contains(o.inexact, k) {
			cur[k] = v
		}
	}
	if data, err := os.ReadFile(path); err == nil {
		prev := map[string]int64{}
		if json.Unmarshal(data, &prev) == nil {
			for _, k := range sortedKeys(cur) {
				if v, ok := prev[k]; ok && v != cur[k] {
					o.notes = append(o.notes, fmt.Sprintf("COUNT MISMATCH %s: %d here, %d in the previous run", k, cur[k], v))
				}
			}
		}
	}
	if data, err := json.Marshal(cur); err == nil && os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		_ = os.WriteFile(path, data, 0o644) // the comparison is advisory
	}
}
