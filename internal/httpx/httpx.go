// Package httpx provides the one client transport shared by every platform
// client in the pipeline, and the in-process server the study runs its
// simulated platforms on.
//
// Serve registers a handler under a reserved host (sim-N.invalid). The
// shared transport hands requests for a registered host straight to its
// handler in a fresh goroutine: no listener, no socket, no request line or
// header block written and re-parsed. Requests for any other host go
// through Transport, a tuned http.Transport, so the client stack still
// works against a real server (and the per-package tests keep exercising
// it over TCP on httptest servers).
package httpx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Transport is the network transport for hosts Serve did not register.
// Go's default transport keeps only two idle connections per host, so a
// 16-worker sweep against one real server would spend most of its time
// re-dialing; MaxIdleConnsPerHost stays at or above the widest worker
// pool that hits one host.
var Transport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// ErrStopped is the transport error for a request to a reserved
// in-process host that is not (or no longer) served. It fails at once:
// .invalid names never reach the resolver.
var ErrStopped = errors.New("httpx: in-process host not served")

// errAborted is the transport error for a handler that panicked — the
// fault injector's http.ErrAbortHandler — before sending headers, the
// in-process analogue of a connection closed without a response.
var errAborted = errors.New("httpx: handler aborted the response")

// reservedSuffix marks in-process hosts. RFC 2606 reserves .invalid, so
// no real host can collide with one.
const reservedSuffix = ".invalid"

// remoteAddr is the RemoteAddr handlers see for in-process requests.
const remoteAddr = "127.0.0.1:1"

// served maps a registered host name to its *server; hostSeq numbers the
// hosts.
var (
	served  sync.Map
	hostSeq atomic.Uint64
)

// server is one registered handler and its in-flight requests.
type server struct {
	h        http.Handler
	mu       sync.Mutex
	stopped  bool
	inflight sync.WaitGroup
}

// Serve registers h under a fresh reserved host and returns its base URL
// ("http://sim-N.invalid") for clients built by NewClient. stop
// unregisters the host, so later requests fail with ErrStopped, and waits
// for in-flight handlers to return; it is safe to call more than once.
func Serve(h http.Handler) (baseURL string, stop func()) {
	host := "sim-" + strconv.FormatUint(hostSeq.Add(1), 10) + reservedSuffix
	srv := &server{h: h}
	served.Store(host, srv)
	return "http://" + host, func() {
		served.Delete(host)
		srv.mu.Lock()
		srv.stopped = true
		srv.mu.Unlock()
		srv.inflight.Wait()
	}
}

// NewClient returns an http.Client on the shared transport. Clients are
// cheap (they carry no state beyond the transport), so every platform
// client constructs its own.
func NewClient() *http.Client {
	return &http.Client{Transport: roundTripper{}}
}

// Drain discards the rest of a response body and closes it. Retry paths
// use it on every response they abandon: over the network that returns
// the connection to the idle pool instead of forcing a re-dial; in
// process it lets the handler run to completion.
func Drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// roundTripper routes reserved hosts in process and the rest to Transport.
type roundTripper struct{}

func (roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	if !strings.HasSuffix(host, reservedSuffix) {
		return Transport.RoundTrip(req)
	}
	if v, ok := served.Load(host); ok {
		return v.(*server).roundTrip(req)
	}
	closeBody(req)
	return nil, fmt.Errorf("%w: %s", ErrStopped, host)
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// roundTrip runs the handler on a server-shaped copy of req in its own
// goroutine and returns once the handler has sent headers (its first
// WriteHeader, Write or Flush) or returned. The body is streamed through
// an io.Pipe, so every handler Write blocks until the client has read it.
func (s *server) roundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		closeBody(req)
		return nil, fmt.Errorf("%w: %s", ErrStopped, req.URL.Host)
	}
	s.inflight.Add(1)
	s.mu.Unlock()

	reqCtx := req.Context()
	ctx, cancel := context.WithCancel(reqCtx)
	sreq := req.Clone(ctx)
	sreq.URL.Scheme, sreq.URL.Host, sreq.URL.User = "", "", nil
	sreq.RequestURI = req.URL.RequestURI()
	if sreq.Host == "" {
		sreq.Host = req.URL.Host
	}
	sreq.RemoteAddr = remoteAddr
	sreq.Proto, sreq.ProtoMajor, sreq.ProtoMinor = "HTTP/1.1", 1, 1
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}

	pr, pw := io.Pipe()
	rw := &responseWriter{
		header: http.Header{},
		req:    req,
		body:   &body{PipeReader: pr, cancel: cancel},
		pw:     pw,
		ready:  make(chan *http.Response, 1),
	}
	// A client that gives up unblocks both sides: its reads see the
	// context error, the handler's writes fail. The callback is only
	// registered for cancellable contexts (a study's requests mostly run
	// on context.Background, so this saves an allocation per request) and
	// is unregistered once the handler returns, so a request that
	// completes spawns no extra goroutine.
	stopAfter := func() bool { return false }
	if reqCtx.Done() != nil {
		stopAfter = context.AfterFunc(reqCtx, func() { pw.CloseWithError(reqCtx.Err()) })
	}

	go func() {
		defer func() {
			if p := recover(); p != nil {
				if p != http.ErrAbortHandler {
					log.Printf("httpx: panic serving %s: %v\n%s", sreq.RequestURI, p, debug.Stack())
				}
				if rw.resp == nil {
					close(rw.ready)
				}
				pw.CloseWithError(io.ErrUnexpectedEOF)
			} else {
				rw.sendHeader()
				// EOF, unless the client gave up first: then its reads
				// see the context error whichever side got here first.
				pw.CloseWithError(reqCtx.Err())
			}
			stopAfter()
			cancel()
			closeBody(req)
			s.inflight.Done()
		}()
		s.h.ServeHTTP(rw, sreq)
	}()

	select {
	case resp, ok := <-rw.ready:
		if !ok {
			return nil, errAborted
		}
		return resp, nil
	case <-reqCtx.Done():
		return nil, reqCtx.Err()
	}
}

// responseWriter is the handler's side of one in-process exchange.
type responseWriter struct {
	header http.Header
	req    *http.Request
	body   *body
	pw     *io.PipeWriter
	resp   *http.Response
	ready  chan *http.Response
}

func (w *responseWriter) Header() http.Header { return w.header }

func (w *responseWriter) WriteHeader(code int) {
	if w.resp != nil {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("httpx: invalid WriteHeader code %v", code))
	}
	w.resp = &http.Response{
		Status:        strconv.Itoa(code) + " " + http.StatusText(code),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header.Clone(),
		Body:          w.body,
		ContentLength: -1, // unknown: the body is still being written
		Request:       w.req,
	}
	w.ready <- w.resp
}

// sendHeader sends the implicit 200 if the handler has not sent headers.
func (w *responseWriter) sendHeader() {
	if w.resp == nil {
		w.WriteHeader(http.StatusOK)
	}
}

func (w *responseWriter) Write(p []byte) (int, error) {
	w.sendHeader()
	return w.pw.Write(p)
}

// Flush sends headers if they are not yet sent. The pipe holds no
// buffered bytes — every Write has already reached the reader — so there
// is nothing else to flush.
func (w *responseWriter) Flush() { w.sendHeader() }

// body is the client's side of the response stream. Closing it cancels
// the handler's context and fails the handler's further writes.
type body struct {
	*io.PipeReader
	cancel context.CancelFunc
}

func (b *body) Close() error {
	b.PipeReader.Close()
	b.cancel()
	return nil
}
