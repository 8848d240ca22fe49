package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWatchRejectsNegativeHorizon pins the fix for the silently-ignored
// negative -horizon: `dayu watch -horizon -5s` used to behave like
// "whole run" because only `> 0` values were forwarded; now it fails
// loudly, mirroring the server's 400 for ?horizon=-5s.
func TestWatchRejectsNegativeHorizon(t *testing.T) {
	for _, args := range [][]string{
		{"-horizon", "-5s"},
		{"-horizon=-1ns"},
		{"-horizon", "-10m", "-once"},
	} {
		err := cmdWatch(args)
		if err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("cmdWatch(%v) = %v, want non-negative horizon error", args, err)
		}
	}
}

// stubServe fakes just enough of a dayu serve instance for watch:
// health and (optionally) the SSE event stream.
func stubServe(t *testing.T, events bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	if events {
		mux.HandleFunc("/v1/live/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, "id: 1\nevent: snapshot\n")
			fmt.Fprint(w, "data: {\"snapshot\":\"stub-1\",\"partial_tasks\":0,\ndata: \"complete_tasks\":2,\"findings\":[]}\n\n")
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestWatchOnceSSE consumes one pushed event (with multi-line data
// framing) and exits.
func TestWatchOnceSSE(t *testing.T) {
	srv := stubServe(t, true)
	if err := cmdWatch([]string{"-server", srv.URL, "-once"}); err != nil {
		t.Fatalf("cmdWatch sse: %v", err)
	}
}

// TestWatchWithoutEventStream pins that a server without
// /v1/live/events (404) fails watch with an error naming the endpoint.
func TestWatchWithoutEventStream(t *testing.T) {
	srv := stubServe(t, false)
	err := cmdWatch([]string{"-server", srv.URL, "-once"})
	if err == nil || !strings.Contains(err.Error(), "/v1/live/events") {
		t.Fatalf("cmdWatch without event stream = %v, want an error naming /v1/live/events", err)
	}
}

// TestReadSSEEvent pins the client-side framing rules: comments
// (heartbeats) are skipped, and multi-line data fields rejoin with \n
// byte-identically.
func TestReadSSEEvent(t *testing.T) {
	stream := ": heartbeat\n\n" +
		"id: 7\nevent: snapshot\ndata: {\"a\":\ndata:  1}\n\n" +
		"event: lagged\ndata: {}\n\n"
	rd := bufio.NewReader(strings.NewReader(stream))

	ev, err := readSSEEvent(rd)
	if err != nil {
		t.Fatal(err)
	}
	if ev.id != "7" || ev.event != "snapshot" || ev.data != "{\"a\":\n 1}" {
		t.Fatalf("first event = %+v", ev)
	}
	ev, err = readSSEEvent(rd)
	if err != nil {
		t.Fatal(err)
	}
	if ev.event != "lagged" || ev.data != "{}" {
		t.Fatalf("second event = %+v", ev)
	}
}
