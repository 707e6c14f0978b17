package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// serveHTTP starts the daemon's front door on addr and returns a
// shutdown func. Endpoints:
//
//	POST /task?batch=N  — admit a batch through the dispatcher; responds
//	                      with the chosen worker. 400 unless 1 ≤ N ≤
//	                      maxBatch, 503 once the arrival stream has closed
//	                      or when the send failed (the batch is then
//	                      counted lost).
//	GET  /state         — the dispatcher's live peer table as JSON.
//	GET  /metrics       — live counters (injected, processed, churn,
//	                      transfer and wire totals) as JSON.
//	GET  /healthz       — 200 while serving, 503 while draining.
func (c *run) serveHTTP(addr string) (func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: http listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/task", c.handleTask)
	mux.HandleFunc("/state", c.handleState)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/healthz", c.handleHealthz)
	// The timeouts bound what a client that stalls mid-request, or parks
	// idle connections, can hold open.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       time.Minute,
	}
	c.httpAddr.Store(ln.Addr().String())
	if c.opt.OnHTTPAddr != nil {
		c.opt.OnHTTPAddr(ln.Addr().String())
	}
	go srv.Serve(ln)
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}, nil
}

// HTTPAddr reports the bound front-door address (useful when Options
// asked for port 0).
func (c *run) HTTPAddr() string {
	if v := c.httpAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

func (c *run) handleTask(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	batch := 0
	if s := r.URL.Query().Get("batch"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 || v > maxBatch {
			http.Error(w, fmt.Sprintf("batch must be an integer in [1, %d]", maxBatch), http.StatusBadRequest)
			return
		}
		batch = v
	}
	node, err := c.Inject(batch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"worker": node})
}

func (c *run) handleState(w http.ResponseWriter, r *http.Request) {
	type peerJSON struct {
		Worker   int    `json:"worker"`
		QueueLen uint32 `json:"queue_len"`
		Up       bool   `json:"up"`
		Seq      uint32 `json:"seq"`
	}
	c.peersMu.Lock()
	out := struct {
		Time  float64    `json:"virtual_time"`
		Peers []peerJSON `json:"peers"`
	}{Time: c.now()}
	for i, p := range c.peers {
		out.Peers = append(out.Peers, peerJSON{Worker: i, QueueLen: p.queueLen, Up: p.up, Seq: p.seq})
	}
	c.peersMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (c *run) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := map[string]interface{}{
		"virtual_time":      c.now(),
		"injected":          atomic.LoadInt64(&c.injected),
		"processed":         atomic.LoadInt64(&c.processedTotal),
		"lost":              c.lost.Load(),
		"failures":          atomic.LoadInt64(&c.failures),
		"recoveries":        atomic.LoadInt64(&c.recoveries),
		"transfers_sent":    atomic.LoadInt64(&c.transfersSent),
		"tasks_transferred": atomic.LoadInt64(&c.tasksMoved),
		"state_packets":     atomic.LoadInt64(&c.statePackets),
		"arrivals_closed":   c.arrivalsClosed.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (c *run) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.arrivalsClosed.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
