package httpx

import (
	"errors"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestFlushSendsBufferedPrefixThenStreams: bytes written before the first
// Flush reach the client ahead of everything after it, and the headers
// arrive at that Flush while the handler is still running.
func TestFlushSendsBufferedPrefixThenStreams(t *testing.T) {
	next := make(chan struct{})
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Early", "1")
		io.WriteString(w, "prefix;")
		w.(http.Flusher).Flush()
		w.Header().Set("X-Late", "1")
		<-next
		io.WriteString(w, "rest")
	})
	// Do returns while the handler is blocked on next: the headers came
	// with the Flush, not with the handler's return.
	resp, err := NewClient().Get(url + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Early") != "1" || resp.Header.Get("X-Late") != "" || resp.ContentLength != -1 {
		t.Fatalf("headers %v, content length %d", resp.Header, resp.ContentLength)
	}
	prefix := make(chan string, 1)
	go func() {
		b := make([]byte, len("prefix;"))
		n, _ := io.ReadFull(resp.Body, b)
		prefix <- string(b[:n])
	}()
	select {
	case p := <-prefix:
		close(next)
		if p != "prefix;" {
			t.Fatalf("prefix %q", p)
		}
	case <-time.After(5 * time.Second):
		close(next)
		t.Fatal("the bytes written before Flush did not reach the client")
	}
	rest, err := io.ReadAll(resp.Body)
	if err != nil || string(rest) != "rest" {
		t.Fatalf("rest %q, %v", rest, err)
	}
}

// TestBufferedBodyReadAfterClose: a closed body's buffer goes back to the
// pool, so a Read after Close must fail rather than return bytes, and a
// later response that reuses the buffer shows only its own bytes.
func TestBufferedBodyReadAfterClose(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.URL.Query().Get("body"))
	})
	c := NewClient()
	first, err := c.Get(url + "/?body=" + strings.Repeat("a", 100))
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 10)
	_, err = io.ReadFull(first.Body, head)
	first.Body.Close()
	first.Body.Close() // idempotent
	if err != nil || first.ContentLength != 100 {
		t.Fatalf("content length %d, %v; want 100", first.ContentLength, err)
	}

	for i := 0; i < 20; i++ {
		second, err := c.Get(url + "/?body=bb")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(second.Body)
		second.Body.Close()
		if err != nil || string(body) != "bb" || second.ContentLength != 2 {
			t.Fatalf("second response %q (content length %d), %v", body, second.ContentLength, err)
		}
	}
	if n, err := first.Body.Read(head); n != 0 || !errors.Is(err, http.ErrBodyReadAfterClose) {
		t.Fatalf("Read after Close: %d bytes %q, %v", n, head[:n], err)
	}
}

// TestClientRequestUnmodified: the handler gets a shallow copy of the
// client's request, so whatever it does to its own URL, Host or form
// leaves the client's request as it was.
func TestClientRequestUnmodified(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm()
		r.URL.Path = "/elsewhere"
		r.URL.RawQuery = "q=2"
		r.Host = "other.invalid"
		r.RemoteAddr = ""
	})
	req, _ := http.NewRequest(http.MethodGet, url+"/a/b?q=1", nil)
	req.Header.Set("X-Acct", "a1")
	wantURL, wantHost := *req.URL, req.Host
	wantHeader := req.Header.Clone()
	resp, err := NewClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	Drain(resp)
	if *req.URL != wantURL || req.Host != wantHost || req.RequestURI != "" || req.RemoteAddr != "" || req.Form != nil {
		t.Fatalf("client request changed: URL %v, Host %q, RequestURI %q, RemoteAddr %q, Form %v",
			req.URL, req.Host, req.RequestURI, req.RemoteAddr, req.Form)
	}
	if !reflect.DeepEqual(req.Header, wantHeader) {
		t.Fatalf("client header %v, want %v", req.Header, wantHeader)
	}
}

// TestSmallGetAllocs bounds the allocations of one small in-process GET,
// client and handler together. The bound sits below the 28 the exchange
// cost when it cloned the request and both header maps and piped every
// body.
func TestSmallGetAllocs(t *testing.T) {
	base := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	})
	u, _ := url.Parse(base + "/x?q=1")
	req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}}
	c := NewClient()
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		Drain(resp)
	})
	if allocs > 20 {
		t.Fatalf("%v allocations per GET, want <= 20", allocs)
	}
}
