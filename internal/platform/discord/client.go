package discord

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

// Sentinel errors.
var (
	ErrUnknownInvite = errors.New("discord: unknown invite")    // expired or revoked
	ErrGuildCap      = errors.New("discord: guild cap reached") // 100 guilds per account
	ErrBotForbidden  = errors.New("discord: bots cannot join")  // bot join restriction
	ErrMissingAccess = errors.New("discord: missing access")    // not a member
	ErrRateLimited   = errors.New("discord: rate limited")
	// ErrCursorStalled: a history page did not move the `before` cursor
	// back, so paging on would fetch the same page forever.
	ErrCursorStalled = errors.New("discord: history cursor did not advance")
)

// Invite is the metadata of one invite, fetchable without joining.
type Invite struct {
	Code      string
	GuildID   uint64
	GuildName string
	Members   int // approximate_member_count
	Online    int // approximate_presence_count
	InviterID string
	CreatedAt time.Time // decoded from the guild snowflake
}

// Client drives the REST API for one account.
type Client struct {
	BaseURL string
	Account string
	HTTP    *http.Client
	// Retry is the shared retry policy: 429s wait out the advertised
	// retry_after through the policy's Waiter, 5xx back off, API error
	// codes surface immediately as sentinels.
	Retry *retry.Policy
	// interner deduplicates repeated vocabulary (usernames, message
	// types) for this client's lifetime.
	interner *ids.Interner
}

// NewClient returns a client bound to an account. Prefix the account name
// with "bot:" to act as a bot application (which may not join guilds).
func NewClient(baseURL, account string) *Client {
	return &Client{
		BaseURL:  strings.TrimRight(baseURL, "/"),
		Account:  account,
		HTTP:     httpx.NewClient(),
		Retry:    retry.New(retry.AccountSeed(account)),
		interner: ids.NewInterner(),
	}
}

func (c *Client) do(ctx context.Context, method, path string, v any) error {
	if v == nil {
		return c.doParse(ctx, method, path, nil)
	}
	return c.doParse(ctx, method, path, func(body []byte) error {
		return json.Unmarshal(body, v)
	})
}

// doParse performs one authenticated call through the retry policy,
// reading 200 bodies into a pooled buffer handed to parse. parse must
// not retain the slice; a parse error makes the attempt transient.
// Error bodies keep the encoding/json path — they are rare and carry
// the sentinel mapping.
func (c *Client) doParse(ctx context.Context, method, path string, parse func(body []byte) error) error {
	return c.Retry.Do(method+" "+path, func(attempt int) retry.Outcome {
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, nil)
		if err != nil {
			return retry.Fail(err)
		}
		req.Header.Set("X-DC-Account", c.Account)
		faults.Mark(req, attempt)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return retry.Retry(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if parse == nil {
				io.Copy(io.Discard, resp.Body)
				return retry.Ok()
			}
			bp := jsonx.GetBuf()
			body, err := jsonx.ReadInto(bp, io.LimitReader(resp.Body, 16<<20))
			if err != nil {
				jsonx.PutBuf(bp)
				return retry.Retry(fmt.Errorf("discord: reading response: %w", err))
			}
			err = parse(body)
			jsonx.PutBuf(bp)
			if err != nil {
				return retry.Retry(fmt.Errorf("discord: decoding response: %w", err))
			}
			return retry.Ok()
		}
		var e struct {
			Message    string  `json:"message"`
			Code       int     `json:"code"`
			RetryAfter float64 `json:"retry_after"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		io.Copy(io.Discard, resp.Body)
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			return retry.Throttled(time.Duration(e.RetryAfter*float64(time.Second)), ErrRateLimited)
		case e.Code == 10006:
			return retry.Fail(ErrUnknownInvite)
		case e.Code == 30001:
			return retry.Fail(ErrGuildCap)
		case e.Code == 20001:
			return retry.Fail(ErrBotForbidden)
		case e.Code == 50001:
			return retry.Fail(ErrMissingAccess)
		case resp.StatusCode >= 500:
			return retry.Retry(fmt.Errorf("discord: status %d: %s", resp.StatusCode, e.Message))
		default:
			return retry.Fail(fmt.Errorf("discord: status %d code %d: %s", resp.StatusCode, e.Code, e.Message))
		}
	})
}

type inviteJSON struct {
	Code  string `json:"code"`
	Guild struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	} `json:"guild"`
	Inviter struct {
		ID string `json:"id"`
	} `json:"inviter"`
	Members int `json:"approximate_member_count"`
	Online  int `json:"approximate_presence_count"`
}

func decodeInvite(j inviteJSON) (Invite, error) {
	gid, err := strconv.ParseUint(j.Guild.ID, 10, 64)
	if err != nil {
		return Invite{}, fmt.Errorf("discord: bad guild id %q", j.Guild.ID)
	}
	return Invite{
		Code:      j.Code,
		GuildID:   gid,
		GuildName: j.Guild.Name,
		Members:   j.Members,
		Online:    j.Online,
		InviterID: j.Inviter.ID,
		CreatedAt: ids.SnowflakeTime(ids.DiscordEpochMS, gid),
	}, nil
}

// ProbeInvite fetches invite metadata (with counts) without joining.
func (c *Client) ProbeInvite(ctx context.Context, code string) (Invite, error) {
	var j inviteJSON
	if err := c.do(ctx, http.MethodGet, "/api/v9/invites/"+url.PathEscape(code)+"?with_counts=true", &j); err != nil {
		return Invite{}, err
	}
	return decodeInvite(j)
}

// Join accepts an invite, joining its guild.
func (c *Client) Join(ctx context.Context, code string) (Invite, error) {
	var j inviteJSON
	if err := c.do(ctx, http.MethodPost, "/api/v9/invites/"+url.PathEscape(code), &j); err != nil {
		return Invite{}, err
	}
	gid, err := strconv.ParseUint(j.Guild.ID, 10, 64)
	if err != nil {
		return Invite{}, fmt.Errorf("discord: bad guild id %q", j.Guild.ID)
	}
	return Invite{Code: j.Code, GuildID: gid, GuildName: j.Guild.Name,
		CreatedAt: ids.SnowflakeTime(ids.DiscordEpochMS, gid)}, nil
}

// Channel is one guild text channel.
type Channel struct {
	ID   uint64
	Name string
}

// Channels lists a joined guild's channels.
func (c *Client) Channels(ctx context.Context, guildID uint64) ([]Channel, error) {
	var out []struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/v9/guilds/"+strconv.FormatUint(guildID, 10)+"/channels", &out); err != nil {
		return nil, err
	}
	chs := make([]Channel, len(out))
	for i, ch := range out {
		id, err := strconv.ParseUint(ch.ID, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("discord: bad channel id %q", ch.ID)
		}
		chs[i] = Channel{ID: id, Name: ch.Name}
	}
	return chs, nil
}

// Message is one channel message.
type Message struct {
	ID       uint64
	AuthorID uint64
	Author   string
	SentAt   time.Time
	Type     string
	Content  string
}

// MessagePager walks a channel's history backwards via the `before`
// snowflake cursor. The cursor survives rate-limit errors, so the caller
// can wait and call Next again without losing position.
type MessagePager struct {
	c      *Client
	chID   uint64
	before uint64
	done   bool
	page   []Message // reused by every Next
}

// MessagePager returns a pager over the channel's full history.
func (c *Client) MessagePager(channelID uint64) *MessagePager {
	return &MessagePager{c: c, chID: channelID}
}

// MessagePagerBefore returns a pager anchored at the given snowflake
// cursor instead of the service clock's now, so the history window does not
// shift when concurrent collectors advance virtual time.
func (c *Client) MessagePagerBefore(channelID, before uint64) *MessagePager {
	return &MessagePager{c: c, chID: channelID, before: before}
}

// Done reports whether the history is exhausted.
func (p *MessagePager) Done() bool { return p.done }

// Next fetches one page (newest remaining first). The page is decoded into
// a buffer the pager reuses, so it is valid only until the next call to
// Next; copy out what must outlive it.
func (p *MessagePager) Next(ctx context.Context) ([]Message, error) {
	if p.done {
		return nil, nil
	}
	path := "/api/v9/channels/" + strconv.FormatUint(p.chID, 10) + "/messages?limit=100"
	if p.before != 0 {
		path += "&before=" + strconv.FormatUint(p.before, 10)
	}
	var count int
	err := p.c.doParse(ctx, http.MethodGet, path, func(body []byte) error {
		// Every attempt starts from an empty page, so a malformed body
		// leaves no rows behind for its retry.
		var perr error
		p.page, count, perr = parseMessagePage(p.page[:0], body, p.c.interner)
		return perr
	})
	if err != nil {
		return nil, err
	}
	if len(p.page) > 0 {
		last := p.page[len(p.page)-1].ID
		if p.before != 0 && last >= p.before {
			p.done = true
			return nil, fmt.Errorf("%w: channel %d, before=%d", ErrCursorStalled, p.chID, p.before)
		}
		p.before = last
	}
	if count < 100 {
		p.done = true
	}
	return p.page, nil
}

// parseMessagePage decodes one channel-messages page, appending its
// messages to dst. Snowflake IDs are folded straight from the quoted digit
// strings, usernames and message types are interned, content is copied. A
// null body (empty history) decodes as zero messages, matching
// encoding/json on a nil slice. On error the returned slice holds dst and
// whatever rows decoded before the fault.
func parseMessagePage(dst []Message, body []byte, in *ids.Interner) ([]Message, int, error) {
	var d jsonx.Dec
	d.Reset(body)
	if d.Null() {
		return dst, 0, d.End()
	}
	count := 0
	err := d.Arr(func() error {
		var m Message
		count++
		if err := d.Obj(func(key []byte) error {
			switch string(key) {
			case "id":
				b, err := d.StrBytes()
				if err != nil {
					return err
				}
				m.ID, err = foldU64(b)
				return err
			case "author":
				return d.Obj(func(k2 []byte) error {
					switch string(k2) {
					case "id":
						b, err := d.StrBytes()
						if err != nil {
							return err
						}
						m.AuthorID, err = foldU64(b)
						return err
					case "username":
						b, err := d.StrBytes()
						if err != nil {
							return err
						}
						m.Author = in.InternBytes(b)
						return nil
					}
					return d.Skip()
				})
			case "timestamp":
				b, err := d.StrBytes()
				if err != nil {
					return err
				}
				m.SentAt, err = parseRFC3339(b)
				return err
			case "x_type":
				b, err := d.StrBytes()
				if err != nil {
					return err
				}
				m.Type = in.InternBytes(b)
				return nil
			case "content":
				s, err := d.Str()
				m.Content = s
				return err
			}
			return d.Skip()
		}); err != nil {
			return err
		}
		dst = append(dst, m)
		return nil
	})
	if err != nil {
		return dst, 0, err
	}
	return dst, count, d.End()
}

// foldU64 parses an unsigned decimal from b without going through a
// string (strconv would retain a copy on its error paths).
func foldU64(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("discord: empty number")
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("discord: bad number %q", b)
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, fmt.Errorf("discord: number overflow %q", b)
		}
		v = v*10 + d
	}
	return v, nil
}

// parseRFC3339 decodes the service's RFC3339Nano timestamps at fixed
// offsets ("2006-01-02T15:04:05[.fff…]Z"), falling back to time.Parse
// for offsets or unusual shapes. Results are UTC.
func parseRFC3339(b []byte) (time.Time, error) {
	if len(b) < 20 || b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[len(b)-1] != 'Z' {
		t, err := time.Parse(time.RFC3339Nano, string(b))
		if err != nil {
			return time.Time{}, fmt.Errorf("discord: bad timestamp %q", b)
		}
		return t.UTC(), nil
	}
	num := func(lo, hi int) (int, bool) {
		v := 0
		for _, c := range b[lo:hi] {
			if c < '0' || c > '9' {
				return 0, false
			}
			v = v*10 + int(c-'0')
		}
		return v, true
	}
	year, ok1 := num(0, 4)
	month, ok2 := num(5, 7)
	day, ok3 := num(8, 10)
	hh, ok4 := num(11, 13)
	mm, ok5 := num(14, 16)
	ss, ok6 := num(17, 19)
	nsec := 0
	okf := true
	if len(b) > 20 {
		if b[19] != '.' {
			okf = false
		} else {
			frac := b[20 : len(b)-1]
			if len(frac) == 0 || len(frac) > 9 {
				okf = false
			} else {
				v, ok := num(20, len(b)-1)
				if !ok {
					okf = false
				} else {
					for i := len(frac); i < 9; i++ {
						v *= 10
					}
					nsec = v
				}
			}
		}
	}
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && okf) || month < 1 || month > 12 {
		t, err := time.Parse(time.RFC3339Nano, string(b))
		if err != nil {
			return time.Time{}, fmt.Errorf("discord: bad timestamp %q", b)
		}
		return t.UTC(), nil
	}
	return time.Date(year, time.Month(month), day, hh, mm, ss, nsec, time.UTC), nil
}

// Profile is a user profile with connected accounts.
type Profile struct {
	UserID   uint64
	Username string
	Linked   []string // connected platform names
}

// UserProfile fetches a user's profile; the connected_accounts list is the
// linked-account exposure of Table 5.
func (c *Client) UserProfile(ctx context.Context, userID uint64) (Profile, error) {
	var out struct {
		User struct {
			ID       string `json:"id"`
			Username string `json:"username"`
		} `json:"user"`
		Connected []struct {
			Type string `json:"type"`
		} `json:"connected_accounts"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/v9/users/"+strconv.FormatUint(userID, 10)+"/profile", &out); err != nil {
		return Profile{}, err
	}
	p := Profile{Username: out.User.Username}
	p.UserID, _ = strconv.ParseUint(out.User.ID, 10, 64)
	for _, c := range out.Connected {
		p.Linked = append(p.Linked, c.Type)
	}
	return p, nil
}
