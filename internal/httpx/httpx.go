// Package httpx provides the one client transport shared by every platform
// client in the pipeline, and the in-process server the study runs its
// simulated platforms on.
//
// Serve registers a handler under a reserved host (sim-N.invalid). The
// shared transport hands requests for a registered host straight to its
// handler in a fresh goroutine: no listener, no socket, no request line or
// header block written and re-parsed, and no copy of the request or of
// the response headers. A response body is buffered unless the handler
// flushes. Requests for any other host go through Transport, a tuned
// http.Transport, so the client stack still works against a real server
// (and the per-package tests keep exercising it over TCP on httptest
// servers).
package httpx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msgscope/internal/jsonx"
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

// roundTrip runs the handler on a shallow server-shaped copy of req in its
// own goroutine, and returns at the handler's first Flush or when it
// returns. Until it flushes, its body is buffered, so a handler that
// never flushes (every service but the Twitter stream) hands the client
// a complete response with a known ContentLength. The first Flush sends
// the headers and switches the body to an io.Pipe: from then on every
// Write blocks until the client has read it.
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
	w := &responseWriter{req: req, cancel: cancel, buf: jsonx.GetBuf(), ready: make(chan *http.Response, 1)}
	// Handlers only read the header map, so it is shared; the URL is
	// copied, so req comes back unmodified.
	w.url = *req.URL
	w.url.Scheme, w.url.Host, w.url.User = "", "", nil
	sreq := req.WithContext(ctx)
	sreq.URL = &w.url
	sreq.RequestURI = req.URL.RequestURI()
	if sreq.Host == "" {
		sreq.Host = req.URL.Host
	}
	sreq.RemoteAddr = remoteAddr
	sreq.Proto, sreq.ProtoMajor, sreq.ProtoMinor = "HTTP/1.1", 1, 1
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}

	go func() {
		defer func() {
			p := recover()
			if p != nil && p != http.ErrAbortHandler {
				log.Printf("httpx: panic serving %s: %v\n%s", sreq.RequestURI, p, debug.Stack())
			}
			w.finish(p != nil)
			cancel()
			closeBody(req)
			s.inflight.Done()
		}()
		s.h.ServeHTTP(w, sreq)
	}()

	select {
	case resp, ok := <-w.ready:
		if !ok {
			return nil, errAborted
		}
		// A handler that returned because the client gave up readies its
		// response together with the context: the context error wins.
		if err := reqCtx.Err(); err != nil {
			resp.Body.Close()
			return nil, err
		}
		return resp, nil
	case <-reqCtx.Done():
		return nil, reqCtx.Err()
	}
}

// responseWriter is the handler's side of one in-process exchange. It
// also holds the Response and buffered body the client gets.
type responseWriter struct {
	req       *http.Request // the client's request
	url       url.URL       // the handler's request URL
	cancel    context.CancelFunc
	header    http.Header
	sent      bool // WriteHeader has filled resp
	resp      http.Response
	buf       *[]byte        // the body, pooled, until the first Flush
	pw        *io.PipeWriter // the body from the first Flush on
	stopAfter func() bool    // unregisters the pipe's context callback
	body      bufBody
	ready     chan *http.Response
}

func (w *responseWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

// WriteHeader snapshots the headers by moving the handler's map into the
// response; a later Header call gets a fresh map that nothing reads.
func (w *responseWriter) WriteHeader(code int) {
	if w.sent {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("httpx: invalid WriteHeader code %v", code))
	}
	w.sent = true
	w.resp = http.Response{
		Status:        strconv.Itoa(code) + " " + http.StatusText(code),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.Header(),
		ContentLength: -1, // unknown until the handler returns
		Request:       w.req,
	}
	w.header = nil
}

func (w *responseWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.pw != nil {
		return w.pw.Write(p)
	}
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}

// Flush sends the headers and switches the body to a pipe, writing the
// buffered bytes into it first, so it returns once the client has read
// them. Once streaming, every Write has reached the reader before it
// returns, so there is nothing left to flush.
func (w *responseWriter) Flush() {
	if w.pw != nil {
		return
	}
	w.WriteHeader(http.StatusOK)
	pr, pw := io.Pipe()
	w.pw, w.stopAfter = pw, func() bool { return false }
	w.resp.Body = &pipeBody{PipeReader: pr, cancel: w.cancel}
	// A client that gives up unblocks both sides: its reads see the
	// context error, the handler's writes fail. The callback is only
	// registered for cancellable contexts and is unregistered once the
	// handler returns.
	if reqCtx := w.req.Context(); reqCtx.Done() != nil {
		w.stopAfter = context.AfterFunc(reqCtx, func() { pw.CloseWithError(reqCtx.Err()) })
	}
	w.ready <- &w.resp
	if len(*w.buf) > 0 {
		pw.Write(*w.buf)
	}
	jsonx.PutBuf(w.buf)
	w.buf = nil
}

// finish completes the exchange once the handler has returned or
// panicked.
func (w *responseWriter) finish(panicked bool) {
	switch {
	case w.pw != nil:
		// EOF, unless the client gave up first: then its reads see the
		// context error whichever side got here first.
		err := w.req.Context().Err()
		if panicked {
			err = io.ErrUnexpectedEOF
		}
		w.pw.CloseWithError(err)
		w.stopAfter()
	case panicked && !w.sent:
		jsonx.PutBuf(w.buf)
		close(w.ready)
	default:
		w.WriteHeader(http.StatusOK)
		w.body = bufBody{buf: w.buf, err: io.EOF}
		if panicked {
			w.body.err = io.ErrUnexpectedEOF
		} else {
			w.resp.ContentLength = int64(len(*w.buf))
		}
		w.resp.Body = &w.body
		w.ready <- &w.resp
	}
}

// bufBody is the client's side of a response whose handler returned
// without flushing. Close returns the buffer to the pool, so a Read after
// Close fails rather than return another response's bytes.
type bufBody struct {
	buf *[]byte // nil once closed
	off int
	err error // after the last byte: io.EOF, or io.ErrUnexpectedEOF for an aborted handler
}

func (b *bufBody) Read(p []byte) (int, error) {
	switch {
	case b.buf == nil:
		return 0, http.ErrBodyReadAfterClose
	case b.off == len(*b.buf):
		return 0, b.err
	}
	n := copy(p, (*b.buf)[b.off:])
	b.off += n
	return n, nil
}

func (b *bufBody) Close() error {
	jsonx.PutBuf(b.buf)
	b.buf = nil
	return nil
}

// pipeBody is the client's side of a flushed response. Closing it cancels
// the handler's context and fails the handler's further writes.
type pipeBody struct {
	*io.PipeReader
	cancel context.CancelFunc
}

func (b *pipeBody) Close() error {
	b.PipeReader.Close()
	b.cancel()
	return nil
}
