package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// serve registers h for the test's lifetime.
func serve(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	url, stop := Serve(h)
	t.Cleanup(stop)
	return url
}

// waitGoroutines waits until the goroutine count is back to at most base:
// a goroutine that has finished its work still needs a moment to exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want <= %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStatusHeadersAndServerShapedRequest(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		if r.RequestURI != "/a/b?x=1&y=2" || r.URL.Path != "/a/b" || r.URL.Query().Get("y") != "2" {
			t.Errorf("RequestURI %q, URL %v", r.RequestURI, r.URL)
		}
		if r.URL.Scheme != "" || r.URL.Host != "" {
			t.Errorf("server URL carries scheme/host: %v", r.URL)
		}
		if !strings.HasSuffix(r.Host, ".invalid") || r.RemoteAddr == "" || r.Body == nil {
			t.Errorf("Host %q, RemoteAddr %q, Body %v", r.Host, r.RemoteAddr, r.Body)
		}
		if r.Header.Get("X-Acct") != "a1" || r.Proto != "HTTP/1.1" {
			t.Errorf("header %v, proto %q", r.Header, r.Proto)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTeapot)
		// Headers are snapshotted at WriteHeader: later edits are lost.
		w.Header().Set("Retry-After", "99")
		w.Header().Set("X-Late", "1")
		io.WriteString(w, `{"ok":true}`)
	})
	req, _ := http.NewRequest(http.MethodGet, url+"/a/b?x=1&y=2", nil)
	req.Header.Set("X-Acct", "a1")
	resp, err := NewClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTeapot || resp.Status != "418 I'm a teapot" {
		t.Fatalf("status %d %q", resp.StatusCode, resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" || resp.Header.Get("X-Late") != "" {
		t.Fatalf("headers %v: not snapshotted at WriteHeader", resp.Header)
	}
	if string(body) != `{"ok":true}` || resp.Request != req {
		t.Fatalf("body %q", body)
	}
}

func TestImplicitStatusAndEmptyBody(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {})
	resp, err := NewClient().Get(url + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("status %d, body %q, err %v", resp.StatusCode, body, err)
	}
}

func TestPostBody(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.ContentLength != int64(len("a=1&b=2")) {
			t.Errorf("method %s, content length %d", r.Method, r.ContentLength)
		}
		if err := r.ParseForm(); err != nil {
			t.Error(err)
		}
		fmt.Fprintf(w, "%s+%s", r.PostForm.Get("a"), r.PostForm.Get("b"))
	})
	resp, err := NewClient().Post(url+"/form", "application/x-www-form-urlencoded", strings.NewReader("a=1&b=2"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "1+2" {
		t.Fatalf("echo %q", body)
	}
}

// TestStreamingFlush proves the body is streamed, not buffered: the
// handler does not write its second line until the client has read the
// first.
func TestStreamingFlush(t *testing.T) {
	next := make(chan struct{})
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("ResponseWriter is not an http.Flusher")
			return
		}
		w.Header().Set("X-Sub", "3")
		f.Flush() // sends headers with no body yet
		for i := 0; i < 3; i++ {
			<-next
			fmt.Fprintf(w, "line %d\n", i)
			f.Flush()
		}
	})
	resp, err := NewClient().Get(url + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Sub") != "3" {
		t.Fatalf("headers %v", resp.Header)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		next <- struct{}{}
		line, err := br.ReadString('\n')
		if err != nil || line != fmt.Sprintf("line %d\n", i) {
			t.Fatalf("line %d: %q, %v", i, line, err)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the last line: %v, want EOF", err)
	}
}

func TestAbortBeforeHeaders(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	resp, err := NewClient().Get(url + "/x")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("aborted handler returned status %d, want a transport error", resp.StatusCode)
	}
	if !errors.Is(err, errAborted) {
		t.Fatalf("err = %v, want errAborted", err)
	}
}

func TestAbortAfterHeaders(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"trunc`)
		panic(http.ErrAbortHandler)
	})
	resp, err := NewClient().Get(url + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) || string(body) != `{"trunc` {
		t.Fatalf("body %q, err %v; want the partial body then io.ErrUnexpectedEOF", body, err)
	}
}

func TestBodyCloseCancelsHandler(t *testing.T) {
	cancelled := make(chan error, 1)
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		_, werr := w.Write([]byte("late"))
		if werr == nil {
			t.Error("Write after the client closed the body succeeded")
		}
		cancelled <- r.Context().Err()
	})
	resp, err := NewClient().Get(url + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("handler context err = %v, want context.Canceled", err)
	}
}

func TestRequestContextCancel(t *testing.T) {
	started := make(chan struct{})
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		close(started)
		<-r.Context().Done()
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/x", nil)
	resp, err := NewClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-started
	cancel()
	if _, err := io.ReadAll(resp.Body); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel: %v, want context.Canceled", err)
	}

	// Cancelled while waiting for headers: RoundTrip returns the
	// context error and the handler is still released.
	block := make(chan struct{})
	done := make(chan struct{})
	url2 := serve(t, func(w http.ResponseWriter, r *http.Request) {
		close(block)
		<-r.Context().Done()
		close(done)
	})
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		<-block
		cancel2()
	}()
	req2, _ := http.NewRequestWithContext(ctx2, http.MethodGet, url2+"/x", nil)
	if _, err := NewClient().Do(req2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do err = %v, want context.Canceled", err)
	}
	<-done
}

func TestStopWaitsAndStoppedHostFailsFast(t *testing.T) {
	base := runtime.NumGoroutine()
	entered := make(chan struct{})
	release := make(chan struct{})
	url, stop := Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	}))
	got := make(chan string, 1)
	go func() {
		resp, err := NewClient().Get(url + "/slow")
		if err != nil {
			got <- err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- string(body)
	}()
	<-entered
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	// The handler is blocked on release, so stop cannot have returned.
	select {
	case <-stopped:
		t.Fatal("stop returned while a handler was in flight")
	default:
	}
	close(release)
	<-stopped
	if body := <-got; body != "done" {
		t.Fatalf("in-flight request got %q", body)
	}
	stop() // idempotent

	start := time.Now()
	_, err := NewClient().Get(url + "/again")
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("request to a stopped host: %v, want ErrStopped", err)
	}
	if _, err := NewClient().Get("http://sim-never.invalid/"); !errors.Is(err, ErrStopped) {
		t.Fatalf("request to an unregistered host: %v, want ErrStopped", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("failing two requests took %v", d)
	}
	waitGoroutines(t, base)
}

// TestConcurrentRequests hammers one served handler from many clients; run
// it under -race.
func TestConcurrentRequests(t *testing.T) {
	base := runtime.NumGoroutine()
	url, stop := Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Q", r.URL.Query().Get("q"))
		io.WriteString(w, strings.Repeat(r.URL.Query().Get("q"), 1000))
	}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient()
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("%d-%d.", g, i)
				resp, err := c.Get(url + "/?q=" + q)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.Header.Get("X-Q") != q || string(body) != strings.Repeat(q, 1000) {
					t.Errorf("request %s: header %q, %d body bytes, err %v", q, resp.Header.Get("X-Q"), len(body), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop()
	waitGoroutines(t, base)
}

// TestOtherHostsUseTheNetwork keeps the network path covered: a host that
// Serve did not register goes through Transport to a real listener.
func TestOtherHostsUseTheNetwork(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "tcp")
	}))
	defer srv.Close()
	resp, err := NewClient().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	Drain(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
