// Package whatsapp simulates the two WhatsApp surfaces the study scraped:
// public invite landing pages (readable without joining — and leaking the
// group creator's phone number, the paper's headline PII finding) and the
// web-client backend used to join groups and sync messages. WhatsApp has no
// data API, so the client side of this package is a scraper, not an API
// client.
package whatsapp

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"msgscope/internal/checkpoint"
	"msgscope/internal/faults"
	"msgscope/internal/jsonx"
	"msgscope/internal/platform"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
)

// Service simulates WhatsApp's invite landing pages and web client.
type Service struct {
	world *simworld.World
	clock simclock.Clock

	// Faults, when set, injects failures into every surface.
	Faults *faults.Injector

	mu       sync.Mutex
	accounts map[string]*account
}

type account struct {
	joined  map[string]time.Time // invite code -> join time
	joinCap int
	banned  bool
}

// NewService builds the service over the world.
func NewService(world *simworld.World, clock simclock.Clock) *Service {
	return &Service{world: world, clock: clock, accounts: map[string]*account{}}
}

// Handler returns the HTTP mux: GET /invite/{code} is the public landing
// page; /client/* is the authenticated web-client API (account via the
// X-WA-Account header).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /invite/{code}", s.faulty(s.handleInvite))
	mux.HandleFunc("POST /client/join/{code}", s.faulty(s.handleJoin))
	mux.HandleFunc("GET /client/messages/{code}", s.faulty(s.handleMessages))
	mux.HandleFunc("GET /client/members/{code}", s.faulty(s.handleMembers))
	mux.HandleFunc("GET /client/groupinfo/{code}", s.faulty(s.handleGroupInfo))
	return mux
}

// faulty runs fault interception before the handler. WhatsApp has no API,
// so an injected flood is plain HTTP throttling with a Retry-After header.
func (s *Service) faulty(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Faults.Intercept(w, r, "X-WA-Account", func(w http.ResponseWriter) {
			w.Header().Set("Retry-After", "2")
			jsonError(w, http.StatusTooManyRequests, "rate limited")
		}) {
			return
		}
		h(w, r)
	}
}

func (s *Service) group(code string) *simworld.Group {
	return s.world.GroupByCode(platform.WhatsApp, code)
}

// handleInvite renders the public landing page. Revoked invites render a
// distinct revocation notice (HTTP 200, as on the real site).
func (s *Service) handleInvite(w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	g := s.group(code)
	now := s.clock.Now()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if g == nil {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `<html><body><h1>Couldn't find this page</h1></body></html>`)
		return
	}
	if !s.world.AliveAt(g, now) {
		fmt.Fprint(w, `<html><head><title>WhatsApp Group Invite</title></head>`+
			`<body><div class="revoked">This invite link was revoked</div>`+
			`<p>Ask a group admin for a new link.</p></body></html>`)
		return
	}
	members := s.world.MembersAt(g, now)
	fmt.Fprintf(w, `<html><head><title>WhatsApp Group Invite</title>
<meta property="og:title" content="%s"/>
<meta property="og:description" content="WhatsApp Group Invite"/>
</head><body>
<div class="group-info" data-members="%d" data-creator-phone="%s" data-creator-cc="%s">
<h2 class="group-title">%s</h2>
<p class="group-size">Group &middot; %d participants</p>
<p class="group-creator">Created by %s</p>
<a class="join-btn" href="/client/join/%s">Join Chat</a>
</div></body></html>`,
		html.EscapeString(g.Title), members, g.CreatorPhone, g.CreatorCountry,
		html.EscapeString(g.Title), members, g.CreatorPhone, code)
}

func (s *Service) auth(r *http.Request) (string, bool) {
	acct := r.Header.Get("X-WA-Account")
	return acct, acct != ""
}

func (s *Service) accountState(name string) *account {
	a, ok := s.accounts[name]
	if !ok {
		// Join cap "between 250 and 300" per the paper; deterministic
		// per-account jitter.
		capJitter := 0
		for i := 0; i < len(name); i++ {
			capJitter = (capJitter*31 + int(name[i])) % 51
		}
		a = &account{joined: map[string]time.Time{}, joinCap: 250 + capJitter}
		s.accounts[name] = a
	}
	return a
}

// AccountStates snapshots every account's mutable state for a study
// checkpoint, sorted by account name (join entries by code). The join cap
// is not carried: it is a pure function of the account name.
func (s *Service) AccountStates() []checkpoint.AccountState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]checkpoint.AccountState, 0, len(s.accounts))
	for name, a := range s.accounts {
		st := checkpoint.AccountState{Name: name, Banned: a.banned}
		for code, at := range a.joined {
			st.Joined = append(st.Joined, checkpoint.AccountJoin{Code: code, AtUnixNano: at.UnixNano()})
		}
		sort.Slice(st.Joined, func(i, j int) bool { return st.Joined[i].Code < st.Joined[j].Code })
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RestoreAccounts installs checkpointed account states; accounts absent
// from the snapshot stay lazily default-initialized, exactly as a fresh
// run would first see them.
func (s *Service) RestoreAccounts(states []checkpoint.AccountState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range states {
		a := s.accountState(st.Name)
		a.banned = st.Banned
		for _, j := range st.Joined {
			a.joined[j.Code] = time.Unix(0, j.AtUnixNano).UTC()
		}
	}
}

func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Service) handleJoin(w http.ResponseWriter, r *http.Request) {
	acctName, ok := s.auth(r)
	if !ok {
		jsonError(w, http.StatusUnauthorized, "missing X-WA-Account")
		return
	}
	code := r.PathValue("code")
	g := s.group(code)
	now := s.clock.Now()
	if g == nil {
		jsonError(w, http.StatusNotFound, "unknown invite")
		return
	}
	if !s.world.AliveAt(g, now) {
		jsonError(w, http.StatusGone, "invite revoked")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.accountState(acctName)
	if a.banned {
		jsonError(w, http.StatusForbidden, "account banned")
		return
	}
	if _, dup := a.joined[code]; dup {
		writeJSON(w, map[string]any{"ok": true, "already": true})
		return
	}
	if len(a.joined) >= a.joinCap {
		// Exceeding the empirical group limit gets accounts banned.
		a.banned = true
		jsonError(w, http.StatusForbidden, "account banned: too many groups")
		return
	}
	a.joined[code] = now
	writeJSON(w, map[string]any{"ok": true, "joined_at_ms": now.UnixMilli()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// membership returns the join time, enforcing that the account is a member.
func (s *Service) membership(w http.ResponseWriter, r *http.Request, code string) (time.Time, bool) {
	acctName, ok := s.auth(r)
	if !ok {
		jsonError(w, http.StatusUnauthorized, "missing X-WA-Account")
		return time.Time{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.accounts[acctName]
	if !ok {
		jsonError(w, http.StatusForbidden, "not a member")
		return time.Time{}, false
	}
	at, ok := a.joined[code]
	if !ok {
		jsonError(w, http.StatusForbidden, "not a member")
		return time.Time{}, false
	}
	return at, true
}

// messageJSON is the wire shape of one synced message.
type messageJSON struct {
	Author string `json:"author"` // member phone number (exposed PII)
	UserID uint64 `json:"user_id"`
	SentMS int64  `json:"sent_ms"`
	Type   string `json:"type"`
	Text   string `json:"text,omitempty"`
}

// handleMessages syncs group messages. WhatsApp only delivers history from
// the join time onward, regardless of the requested window.
func (s *Service) handleMessages(w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	joinedAt, ok := s.membership(w, r, code)
	if !ok {
		return
	}
	g := s.group(code)
	if g == nil {
		jsonError(w, http.StatusNotFound, "unknown group")
		return
	}
	now := s.clock.Now()
	if v := r.URL.Query().Get("until_ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
			if t := time.UnixMilli(ms).UTC(); t.Before(now) {
				now = t
			}
		}
	}
	from := joinedAt
	if v := r.URL.Query().Get("since_ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
			if t := time.UnixMilli(ms).UTC(); t.After(from) {
				from = t
			}
		}
	}
	// WhatsApp groups are a single room: channel 0.
	msgs := s.world.Messages(g, 0, from, now)
	out := make([]messageJSON, len(msgs))
	for i, m := range msgs {
		u := s.world.UserByIdx(platform.WhatsApp, m.AuthorIdx)
		out[i] = messageJSON{
			Author: u.Phone,
			UserID: u.ID,
			SentMS: m.SentAt.UnixMilli(),
			Type:   m.Type.String(),
			Text:   m.Text,
		}
	}
	bp := jsonx.GetBuf()
	buf := appendMessagesResponse((*bp)[:0], out)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
	*bp = buf
	jsonx.PutBuf(bp)
}

// appendMessagesResponse renders the sync response byte-identically to
// json.NewEncoder(w).Encode(map[string]any{"messages": out}).
func appendMessagesResponse(dst []byte, msgs []messageJSON) []byte {
	dst = append(dst, `{"messages":[`...)
	for i := range msgs {
		if i > 0 {
			dst = append(dst, ',')
		}
		m := &msgs[i]
		dst = append(dst, `{"author":`...)
		dst = jsonx.AppendString(dst, m.Author)
		dst = append(dst, `,"user_id":`...)
		dst = jsonx.AppendUint(dst, m.UserID)
		dst = append(dst, `,"sent_ms":`...)
		dst = jsonx.AppendInt(dst, m.SentMS)
		dst = append(dst, `,"type":`...)
		dst = jsonx.AppendString(dst, m.Type)
		if m.Text != "" {
			dst = append(dst, `,"text":`...)
			dst = jsonx.AppendString(dst, m.Text)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']', '}')
	return append(dst, '\n')
}

// memberJSON is one group member as the client sees it: the phone number is
// always visible to fellow members.
type memberJSON struct {
	Phone   string `json:"phone"`
	UserID  uint64 `json:"user_id"`
	Country string `json:"country"`
}

func (s *Service) handleMembers(w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	if _, ok := s.membership(w, r, code); !ok {
		return
	}
	g := s.group(code)
	if g == nil {
		jsonError(w, http.StatusNotFound, "unknown group")
		return
	}
	idxs := s.world.MemberIdx(g, s.clock.Now())
	out := make([]memberJSON, len(idxs))
	for i, idx := range idxs {
		u := s.world.UserByIdx(platform.WhatsApp, idx)
		out[i] = memberJSON{Phone: u.Phone, UserID: u.ID, Country: u.Country}
	}
	writeJSON(w, map[string]any{"members": out})
}

// handleGroupInfo exposes metadata visible to members, including the group
// creation date (unavailable from the landing page).
func (s *Service) handleGroupInfo(w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	if _, ok := s.membership(w, r, code); !ok {
		return
	}
	g := s.group(code)
	if g == nil {
		jsonError(w, http.StatusNotFound, "unknown group")
		return
	}
	writeJSON(w, map[string]any{
		"title":         g.Title,
		"created_ms":    g.CreatedAt.UnixMilli(),
		"creator_phone": g.CreatorPhone,
		"members":       s.world.MembersAt(g, s.clock.Now()),
	})
}
