package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans sharing a Trace
// belong to one job or request; Parent links a span to the span that
// caused it (a worker handler span to the coordinator request that
// reached it), 0 for none.
type span struct {
	Trace  string    `json:"trace"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Bytes  int64     `json:"bytes,omitempty"`
	Failed bool      `json:"failed,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check at each boundary.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span, assigning an ID when it has none.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byTrace groups spans by trace id.
func byTrace(spans []span) map[string][]span {
	out := map[string][]span{}
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// covered returns how much of [from, to] the union of the given spans
// covers.
func covered(spans []span, from, to time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfTimes returns, per span name, the median over traces of the summed
// self time: a span's duration minus the part of it that spans nested
// inside it (same trace, starting no earlier and ending no later) cover.
func selfTimes(spans []span, root string) map[string]float64 {
	per := map[string][]float64{}
	for _, group := range byTrace(spans) {
		sums := map[string]float64{}
		for i, s := range group {
			var nested []span
			for j, c := range group {
				if i != j && !c.Start.Before(s.Start) && !c.End.After(s.End) && c.dur() < s.dur() {
					nested = append(nested, c)
				}
			}
			sums[s.Name] += secs(s.dur() - covered(nested, s.Start, s.End))
		}
		if _, ok := sums[root]; !ok {
			continue
		}
		for name, v := range sums {
			per[name] = append(per[name], v)
		}
	}
	out := map[string]float64{}
	for name, vs := range per {
		out[name] = median(vs)
	}
	return out
}

// unattributed is the median, over traces with a root span, of the share
// of the root's wall-clock that no other recorded span covers: time the
// benchmark's boundary spans cannot assign to any layer.
func unattributed(spans []span, root string) float64 {
	var shares []float64
	for _, group := range byTrace(spans) {
		var r *span
		var rest []span
		for i := range group {
			if group[i].Name == root && r == nil {
				r = &group[i]
				continue
			}
			rest = append(rest, group[i])
		}
		if r == nil || r.dur() <= 0 {
			continue
		}
		shares = append(shares, 1-secs(covered(rest, r.Start, r.End))/secs(r.dur()))
	}
	return median(shares)
}

// spanHeader carries a client span's id to the server span it causes.
const spanHeader = "X-Perfbench-Span"

// traceHeader carries the trace id where the request itself names none.
const traceHeader = "X-Perfbench-Trace"

// tracingHandler wraps an http.Handler and records one span per request,
// named by route, with the response bytes written.
type tracingHandler struct {
	t     *tracer
	next  http.Handler
	name  func(*http.Request) string
	trace func(*http.Request) string
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := h.name(r)
	traceID := r.Header.Get(traceHeader)
	if h.trace != nil {
		if id := h.trace(r); id != "" {
			traceID = id
		}
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	h.t.add(span{Trace: traceID, Parent: parent, Name: name, Start: start, End: time.Now(),
		Bytes: cw.n, Failed: cw.status >= 400})
}

// countingWriter counts response bytes and keeps http.Flusher reachable,
// which the NDJSON stream handler needs to push each partial.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracingTransport wraps a RoundTripper and records one client span per
// request, ending when the response body is fully read or closed. The
// span id travels in spanHeader so the server side can link to it.
type tracingTransport struct {
	t    *tracer
	next http.RoundTripper
	name func(*http.Request) string
	// onBody, when set, receives each Map dispatch's response body.
	onBody func(traceID string, body []byte)
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := tt.t.newID()
	traceID := jobIDOf(r)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	if traceID != "" {
		r.Header.Set(traceHeader, traceID)
	}
	s := span{Trace: traceID, ID: id, Name: tt.name(r), Start: time.Now()}
	resp, err := tt.next.RoundTrip(r)
	if err != nil {
		s.End, s.Failed = time.Now(), true
		tt.t.add(s)
		return nil, err
	}
	s.Failed = resp.StatusCode >= 400
	b := &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	if tt.onBody != nil && r.URL.Path == "/v1/map" && !s.Failed {
		b.keep = &bytes.Buffer{}
		b.onBody = tt.onBody
	}
	resp.Body = b
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	t      *tracer
	s      span
	once   sync.Once
	keep   *bytes.Buffer
	onBody func(traceID string, body []byte)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if b.keep != nil {
		b.keep.Write(p[:n])
	}
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = time.Now()
		b.t.add(b.s)
		if b.keep != nil {
			b.onBody(b.s.Trace, b.keep.Bytes())
		}
	})
}

// pathJobID names the cluster job of a per-spill shuffle or pack request
// from its URL; worker-to-worker pack pulls carry no trace header, so the
// worker side needs it too.
func pathJobID(r *http.Request) string {
	for _, prefix := range []string{"/v1/shuffle/", "/v1/pack/"} {
		if rest, ok := strings.CutPrefix(r.URL.Path, prefix); ok && rest != "batch" {
			id, _, _ := strings.Cut(rest, "/")
			return id
		}
	}
	return ""
}

// jobIDOf names the cluster job a coordinator↔worker request belongs to:
// from the URL where it names one, from the JSON body's job_id otherwise.
// The body is buffered and restored.
func jobIDOf(r *http.Request) string {
	if id := pathJobID(r); id != "" {
		return id
	}
	if r.Body == nil || r.Body == http.NoBody {
		return ""
	}
	b, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(b))
	if err != nil {
		return ""
	}
	var v struct {
		JobID string `json:"job_id"`
	}
	_ = json.Unmarshal(b, &v) // bodies without a job id carry no trace
	return v.JobID
}

// clusterRoute names a coordinator↔worker request by its route.
func clusterRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/map":
		return "map"
	case p == "/v1/shuffle/batch" || strings.HasPrefix(p, "/v1/shuffle/"):
		return "fetch"
	case p == "/v1/replicate":
		return "replicate"
	case strings.HasPrefix(p, "/v1/pack/"):
		return "pack"
	case p == "/v1/release":
		return "release"
	}
	return "other"
}
