package whatsapp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"msgscope/internal/faults"
	"msgscope/internal/httpx"
	"msgscope/internal/ids"
	"msgscope/internal/jsonx"
	"msgscope/internal/retry"
)

// Landing is the metadata scraped off an invite landing page without
// joining the group — exactly the fields Section 3.2 lists: title, size,
// creator phone number and its country code.
type Landing struct {
	Alive          bool
	Title          string
	Members        int
	CreatorPhone   string
	CreatorCountry string
}

// Sentinel errors for join and probe outcomes.
var (
	ErrRevoked   = errors.New("whatsapp: invite revoked")
	ErrNotFound  = errors.New("whatsapp: invite not found")
	ErrBanned    = errors.New("whatsapp: account banned")
	ErrNotMember = errors.New("whatsapp: not a member")
)

// Client scrapes landing pages and drives the web-client API for one
// account.
type Client struct {
	BaseURL string
	Account string
	HTTP    *http.Client
	// Retry is the shared retry policy: throttles wait out the Retry-After
	// header through the policy's Waiter, transient failures back off,
	// sentinels surface immediately.
	Retry *retry.Policy
	// interner deduplicates repeated vocabulary (author phones, message
	// types, countries) for this client's lifetime.
	interner *ids.Interner
}

// NewClient returns a client bound to an account name. The retry jitter
// seed derives from the account so accounts decorrelate.
func NewClient(baseURL, account string) *Client {
	return &Client{
		BaseURL:  strings.TrimRight(baseURL, "/"),
		Account:  account,
		HTTP:     httpx.NewClient(),
		Retry:    retry.New(retry.AccountSeed(account)),
		interner: ids.NewInterner(),
	}
}

// ProbeInvite fetches and scrapes the landing page of an invite code.
// WhatsApp has no API for this, so it parses the HTML the way the study's
// automation did.
func (c *Client) ProbeInvite(ctx context.Context, code string) (Landing, error) {
	path := "/invite/" + code
	var l Landing
	err := c.Retry.Do("GET "+path, func(attempt int) retry.Outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return retry.Fail(err)
		}
		req.Header.Set("X-WA-Account", c.Account)
		faults.Mark(req, attempt)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return retry.Retry(err)
		}
		switch {
		case resp.StatusCode == http.StatusNotFound:
			httpx.Drain(resp)
			return retry.Fail(ErrNotFound)
		case resp.StatusCode == http.StatusOK:
			bp := jsonx.GetBuf()
			body, err := jsonx.ReadInto(bp, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if err != nil {
				jsonx.PutBuf(bp)
				return retry.Retry(err)
			}
			l, err = scrapeLanding(string(body))
			jsonx.PutBuf(bp)
			if err != nil {
				// A half-rendered page (e.g. injected truncation) is
				// transient; the next attempt re-fetches.
				return retry.Retry(err)
			}
			return retry.Ok()
		case resp.StatusCode == http.StatusTooManyRequests:
			after := retry.ParseRetryAfter(resp.Header)
			httpx.Drain(resp)
			return retry.Throttled(after, errors.New("whatsapp: rate limited"))
		case resp.StatusCode >= 500:
			httpx.Drain(resp)
			return retry.Retry(fmt.Errorf("whatsapp: landing status %d", resp.StatusCode))
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			return retry.Fail(fmt.Errorf("whatsapp: landing status %d: %s", resp.StatusCode, body))
		}
	})
	return l, err
}

// scrapeLanding parses the landing-page HTML.
func scrapeLanding(page string) (Landing, error) {
	if strings.Contains(page, `class="revoked"`) {
		return Landing{Alive: false}, nil
	}
	l := Landing{Alive: true}
	var ok bool
	if l.Title, ok = attr(page, "og:title", "content"); !ok || l.Title == "" {
		return Landing{}, fmt.Errorf("whatsapp: landing page missing title")
	}
	if v, ok := dataAttr(page, "data-members"); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return Landing{}, fmt.Errorf("whatsapp: bad member count %q", v)
		}
		l.Members = n
	}
	l.CreatorPhone, _ = dataAttr(page, "data-creator-phone")
	l.CreatorCountry, _ = dataAttr(page, "data-creator-cc")
	return l, nil
}

// attr extracts content="..." from the meta tag with property=name.
func attr(page, property, key string) (string, bool) {
	i := strings.Index(page, `property="`+property+`"`)
	if i < 0 {
		return "", false
	}
	rest := page[i:]
	j := strings.Index(rest, key+`="`)
	if j < 0 {
		return "", false
	}
	rest = rest[j+len(key)+2:]
	k := strings.IndexByte(rest, '"')
	if k < 0 {
		return "", false
	}
	return htmlUnescape(rest[:k]), true
}

// dataAttr extracts a data-* attribute value.
func dataAttr(page, name string) (string, bool) {
	i := strings.Index(page, name+`="`)
	if i < 0 {
		return "", false
	}
	rest := page[i+len(name)+2:]
	k := strings.IndexByte(rest, '"')
	if k < 0 {
		return "", false
	}
	return htmlUnescape(rest[:k]), true
}

// htmlUnescaper is hoisted to package scope: strings.NewReplacer builds
// its replacement trie on construction, which is too expensive to repeat
// per scraped attribute.
var htmlUnescaper = strings.NewReplacer("&amp;", "&", "&lt;", "<", "&gt;", ">", "&#34;", `"`, "&#39;", "'", "&middot;", "·")

func htmlUnescape(s string) string {
	return htmlUnescaper.Replace(s)
}

// Join joins a group; the service enforces the per-account cap.
func (c *Client) Join(ctx context.Context, code string) (time.Time, error) {
	path := "/client/join/" + code
	var joined time.Time
	err := c.Retry.Do("POST "+path, func(attempt int) retry.Outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, nil)
		if err != nil {
			return retry.Fail(err)
		}
		req.Header.Set("X-WA-Account", c.Account)
		faults.Mark(req, attempt)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return retry.Retry(err)
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			var out struct {
				JoinedAtMS int64 `json:"joined_at_ms"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				return retry.Retry(fmt.Errorf("whatsapp: decoding join response: %w", err))
			}
			joined = time.UnixMilli(out.JoinedAtMS).UTC()
			return retry.Ok()
		case resp.StatusCode == http.StatusGone:
			return retry.Fail(ErrRevoked)
		case resp.StatusCode == http.StatusNotFound:
			return retry.Fail(ErrNotFound)
		case resp.StatusCode == http.StatusForbidden:
			return retry.Fail(ErrBanned)
		case resp.StatusCode == http.StatusTooManyRequests:
			return retry.Throttled(retry.ParseRetryAfter(resp.Header), errors.New("whatsapp: rate limited"))
		case resp.StatusCode >= 500:
			return retry.Retry(fmt.Errorf("whatsapp: join status %d", resp.StatusCode))
		default:
			return retry.Fail(fmt.Errorf("whatsapp: join status %d", resp.StatusCode))
		}
	})
	return joined, err
}

// Message is one synced group message.
type Message struct {
	AuthorPhone string
	UserID      uint64
	SentAt      time.Time
	Type        string
	Text        string
}

// Messages syncs messages of a joined group since the given time (zero =
// since join; WhatsApp never returns pre-join history).
func (c *Client) Messages(ctx context.Context, code string, since time.Time) ([]Message, error) {
	return c.MessagesUntil(ctx, code, since, time.Time{})
}

// MessagesUntil is Messages with an explicit upper bound on the sync window
// (zero until = the service's current time). Pinning the bound keeps the
// returned message set independent of virtual-clock advances made by
// concurrent collectors.
func (c *Client) MessagesUntil(ctx context.Context, code string, since, until time.Time) ([]Message, error) {
	u := "/client/messages/" + code
	q := url.Values{}
	if !since.IsZero() {
		q.Set("since_ms", strconv.FormatInt(since.UnixMilli(), 10))
	}
	if !until.IsZero() {
		q.Set("until_ms", strconv.FormatInt(until.UnixMilli(), 10))
	}
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var msgs []Message
	err := c.getParse(ctx, u, func(body []byte) error {
		var perr error
		msgs, perr = parseMessages(body, c.interner)
		return perr
	})
	if err != nil {
		return nil, err
	}
	return msgs, nil
}

// parseMessages decodes a /client/messages body. Author phones, message
// types and countries recur across the sync window, so they are
// interned; text bodies are copied.
func parseMessages(body []byte, in *ids.Interner) ([]Message, error) {
	var d jsonx.Dec
	d.Reset(body)
	var msgs []Message
	err := d.Obj(func(key []byte) error {
		if string(key) != "messages" {
			return d.Skip()
		}
		return d.Arr(func() error {
			var m Message
			var sentMS int64
			if err := d.Obj(func(k2 []byte) error {
				switch string(k2) {
				case "author":
					b, err := d.StrBytes()
					if err != nil {
						return err
					}
					m.AuthorPhone = in.InternBytes(b)
					return nil
				case "user_id":
					v, err := d.Uint()
					m.UserID = v
					return err
				case "sent_ms":
					v, err := d.Int()
					sentMS = v
					return err
				case "type":
					b, err := d.StrBytes()
					if err != nil {
						return err
					}
					m.Type = in.InternBytes(b)
					return nil
				case "text":
					s, err := d.Str()
					m.Text = s
					return err
				}
				return d.Skip()
			}); err != nil {
				return err
			}
			m.SentAt = time.UnixMilli(sentMS).UTC()
			msgs = append(msgs, m)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return msgs, d.End()
}

// Member is one group member with the PII WhatsApp exposes to members.
type Member struct {
	Phone   string
	UserID  uint64
	Country string
}

// Members lists the members of a joined group.
func (c *Client) Members(ctx context.Context, code string) ([]Member, error) {
	var ms []Member
	err := c.getParse(ctx, "/client/members/"+code, func(body []byte) error {
		var perr error
		ms, perr = parseMembers(body, c.interner)
		return perr
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// parseMembers decodes a /client/members body, interning the small
// country vocabulary.
func parseMembers(body []byte, in *ids.Interner) ([]Member, error) {
	var out struct {
		Members []memberJSON `json:"members"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	ms := make([]Member, len(out.Members))
	for i, m := range out.Members {
		ms[i] = Member{Phone: m.Phone, UserID: m.UserID, Country: in.Intern(m.Country)}
	}
	return ms, nil
}

// GroupInfo is member-visible group metadata.
type GroupInfo struct {
	Title     string
	CreatedAt time.Time
	Members   int
}

// Info fetches member-visible metadata, including the creation date.
func (c *Client) Info(ctx context.Context, code string) (GroupInfo, error) {
	var out struct {
		Title     string `json:"title"`
		CreatedMS int64  `json:"created_ms"`
		Members   int    `json:"members"`
	}
	if err := c.getJSON(ctx, "/client/groupinfo/"+code, &out); err != nil {
		return GroupInfo{}, err
	}
	return GroupInfo{Title: out.Title, CreatedAt: time.UnixMilli(out.CreatedMS).UTC(), Members: out.Members}, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	return c.getParse(ctx, path, func(body []byte) error {
		return json.Unmarshal(body, v)
	})
}

// getParse performs one authenticated GET through the retry policy,
// reading 200 bodies into a pooled buffer handed to parse. parse must
// not retain the slice; a parse error makes the attempt transient.
func (c *Client) getParse(ctx context.Context, path string, parse func(body []byte) error) error {
	return c.Retry.Do("GET "+path, func(attempt int) retry.Outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return retry.Fail(err)
		}
		req.Header.Set("X-WA-Account", c.Account)
		faults.Mark(req, attempt)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return retry.Retry(err)
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			bp := jsonx.GetBuf()
			body, err := jsonx.ReadInto(bp, io.LimitReader(resp.Body, 16<<20))
			if err != nil {
				jsonx.PutBuf(bp)
				return retry.Retry(fmt.Errorf("whatsapp: reading response: %w", err))
			}
			err = parse(body)
			jsonx.PutBuf(bp)
			if err != nil {
				return retry.Retry(fmt.Errorf("whatsapp: decoding response: %w", err))
			}
			return retry.Ok()
		case resp.StatusCode == http.StatusForbidden:
			io.Copy(io.Discard, resp.Body)
			return retry.Fail(ErrNotMember)
		case resp.StatusCode == http.StatusNotFound:
			io.Copy(io.Discard, resp.Body)
			return retry.Fail(ErrNotFound)
		case resp.StatusCode == http.StatusTooManyRequests:
			return retry.Throttled(retry.ParseRetryAfter(resp.Header), errors.New("whatsapp: rate limited"))
		case resp.StatusCode >= 500:
			io.Copy(io.Discard, resp.Body)
			return retry.Retry(fmt.Errorf("whatsapp: status %d", resp.StatusCode))
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return retry.Fail(fmt.Errorf("whatsapp: status %d: %s", resp.StatusCode, body))
		}
	})
}
