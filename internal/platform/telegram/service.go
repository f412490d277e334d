// Package telegram simulates the two Telegram surfaces the study used: the
// t.me web previews (title, member and online counts, channel-vs-group,
// readable without an account) and the data API (join, full message history
// since creation, participant lists that admins may hide, FLOOD_WAIT rate
// limiting, and phone numbers visible only for the ~0.68% of users who
// opted in).
package telegram

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

// ServiceConfig tunes the simulated API's rate limiting.
type ServiceConfig struct {
	// APIBudget requests are allowed per APIWindow per account before the
	// API answers 420 FLOOD_WAIT.
	APIBudget int
	APIWindow time.Duration
	// FloodWaitSeconds is the advertised wait on a 420.
	FloodWaitSeconds int
}

// DefaultServiceConfig approximates Telegram's flood limits.
func DefaultServiceConfig() ServiceConfig {
	return ServiceConfig{APIBudget: 120, APIWindow: time.Minute, FloodWaitSeconds: 30}
}

// Service simulates Telegram.
type Service struct {
	cfg   ServiceConfig
	world *simworld.World
	clock simclock.Clock

	// Faults, when set, injects failures into every surface.
	Faults *faults.Injector

	mu       sync.Mutex
	accounts map[string]*account

	// floodBody is the 420 FLOOD_WAIT response body, rendered once —
	// floods are frequent enough under fault injection that re-encoding
	// the same two-field object per rejection showed up in profiles.
	floodBody []byte
}

type account struct {
	joined     map[string]time.Time
	budget     float64
	lastRefill time.Time
}

// NewService builds the service over the world.
func NewService(world *simworld.World, clock simclock.Clock, cfg ServiceConfig) *Service {
	flood, _ := json.Marshal(map[string]any{
		"error":       fmt.Sprintf("FLOOD_WAIT_%d", cfg.FloodWaitSeconds),
		"retry_after": cfg.FloodWaitSeconds,
	})
	flood = append(flood, '\n')
	return &Service{cfg: cfg, world: world, clock: clock, accounts: map[string]*account{}, floodBody: flood}
}

// AccountStates snapshots every account's flood budget and memberships for
// a checkpoint, sorted by name (and joins by code) for stable output.
func (s *Service) AccountStates() []checkpoint.AccountState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]checkpoint.AccountState, 0, len(s.accounts))
	for name, a := range s.accounts {
		st := checkpoint.AccountState{
			Name:               name,
			Budget:             a.budget,
			LastRefillUnixNano: a.lastRefill.UnixNano(),
			Joined:             make([]checkpoint.AccountJoin, 0, len(a.joined)),
		}
		for code, at := range a.joined {
			st.Joined = append(st.Joined, checkpoint.AccountJoin{Code: code, AtUnixNano: at.UnixNano()})
		}
		sort.Slice(st.Joined, func(i, j int) bool { return st.Joined[i].Code < st.Joined[j].Code })
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RestoreAccounts rebuilds account state from a checkpoint. Accounts are
// otherwise lazily created with a full budget on first sighting, so restore
// must pre-create them with their exact budget position.
func (s *Service) RestoreAccounts(states []checkpoint.AccountState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range states {
		a := &account{
			joined:     make(map[string]time.Time, len(st.Joined)),
			budget:     st.Budget,
			lastRefill: time.Unix(0, st.LastRefillUnixNano).UTC(),
		}
		for _, j := range st.Joined {
			a.joined[j.Code] = time.Unix(0, j.AtUnixNano).UTC()
		}
		s.accounts[st.Name] = a
	}
}

// Handler returns the HTTP mux. GET /web/{code...} serves the public
// preview; /api/* is the authenticated API (X-TG-Account header).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /web/{code...}", s.faulty(s.handlePreview))
	mux.HandleFunc("POST /api/join/{code...}", s.faulty(s.handleJoin))
	mux.HandleFunc("GET /api/history/{code...}", s.faulty(s.handleHistory))
	mux.HandleFunc("GET /api/participants/{code...}", s.faulty(s.handleParticipants))
	mux.HandleFunc("GET /api/chatinfo/{code...}", s.faulty(s.handleChatInfo))
	return mux
}

// faulty runs fault interception before the handler. Injected floods use
// Telegram's native 420 FLOOD_WAIT shape so the client's flood handling
// covers them identically to organic budget exhaustion.
func (s *Service) faulty(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Faults.Intercept(w, r, "X-TG-Account", func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(420)
			w.Write(s.floodBody)
		}) {
			return
		}
		h(w, r)
	}
}

func (s *Service) group(code string) *simworld.Group {
	return s.world.GroupByCode(platform.Telegram, code)
}

// handlePreview renders the t.me-style web preview.
func (s *Service) handlePreview(w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	g := s.group(code)
	now := s.clock.Now()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if g == nil {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `<html><body>Page not found</body></html>`)
		return
	}
	if !s.world.AliveAt(g, now) {
		// Dead invite links render a generic "join Telegram" page with no
		// group details — the revocation marker the monitor keys on.
		fmt.Fprint(w, `<html><body><div class="tgme_page_invalid">`+
			`This invite link has expired or the group was deleted.</div></body></html>`)
		return
	}
	kind := "group"
	if g.IsChannel {
		kind = "channel"
	}
	members := s.world.MembersAt(g, now)
	online := s.world.OnlineAt(g, now)
	extra := fmt.Sprintf("%d members, %d online", members, online)
	if g.IsChannel {
		extra = fmt.Sprintf("%d subscribers", members)
	}
	fmt.Fprintf(w, `<html><head><meta property="og:title" content="%s"/></head><body>
<div class="tgme_page" data-kind="%s" data-members="%d" data-online="%d">
<span class="tgme_page_title">%s</span>
<div class="tgme_page_extra">%s</div>
<a class="tgme_action_button">%s</a>
</div></body></html>`,
		html.EscapeString(g.Title), kind, members, online,
		html.EscapeString(g.Title), extra, joinLabel(g))
}

func joinLabel(g *simworld.Group) string {
	if g.IsChannel {
		return "Preview channel"
	}
	return "Join group"
}

// takeToken charges one API request against the account's flood budget.
func (s *Service) takeToken(a *account) bool {
	now := s.clock.Now()
	elapsed := now.Sub(a.lastRefill)
	if elapsed > 0 {
		a.budget += float64(s.cfg.APIBudget) * float64(elapsed) / float64(s.cfg.APIWindow)
		if a.budget > float64(s.cfg.APIBudget) {
			a.budget = float64(s.cfg.APIBudget)
		}
		a.lastRefill = now
	}
	if a.budget >= 1 {
		a.budget--
		return true
	}
	return false
}

// apiAuth authenticates and rate-limits one API call. It returns nil after
// writing an error response if the call may not proceed.
func (s *Service) apiAuth(w http.ResponseWriter, r *http.Request) *account {
	name := r.Header.Get("X-TG-Account")
	if name == "" {
		writeError(w, http.StatusUnauthorized, "AUTH_KEY_UNREGISTERED")
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.accounts[name]
	if !ok {
		a = &account{
			joined:     map[string]time.Time{},
			budget:     float64(s.cfg.APIBudget),
			lastRefill: s.clock.Now(),
		}
		s.accounts[name] = a
	}
	if !s.takeToken(a) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(420)
		w.Write(s.floodBody)
		return nil
	}
	return a
}

func writeError(w http.ResponseWriter, status int, code string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": code})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Service) handleJoin(w http.ResponseWriter, r *http.Request) {
	a := s.apiAuth(w, r)
	if a == nil {
		return
	}
	code := r.PathValue("code")
	g := s.group(code)
	now := s.clock.Now()
	if g == nil {
		writeError(w, http.StatusBadRequest, "INVITE_HASH_INVALID")
		return
	}
	if !s.world.AliveAt(g, now) {
		writeError(w, http.StatusBadRequest, "INVITE_HASH_EXPIRED")
		return
	}
	s.mu.Lock()
	a.joined[code] = now
	s.mu.Unlock()
	writeJSON(w, map[string]any{"ok": true, "joined_at_ms": now.UnixMilli()})
}

func (s *Service) requireMember(w http.ResponseWriter, a *account, code string) bool {
	s.mu.Lock()
	_, ok := a.joined[code]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusForbidden, "CHANNEL_PRIVATE")
		return false
	}
	return true
}

// handleHistory pages backwards through a chat's full history (Telegram
// exposes messages since the chat was created). Pagination mirrors
// messages.getHistory: offset_date_ms walks toward older messages, limit
// caps the page size.
func (s *Service) handleHistory(w http.ResponseWriter, r *http.Request) {
	a := s.apiAuth(w, r)
	if a == nil {
		return
	}
	code := r.PathValue("code")
	if !s.requireMember(w, a, code) {
		return
	}
	g := s.group(code)
	if g == nil {
		writeError(w, http.StatusBadRequest, "CHANNEL_INVALID")
		return
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = min(n, 1000)
		}
	}
	until := s.clock.Now()
	if v := r.URL.Query().Get("offset_date_ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
			until = time.UnixMilli(ms).UTC()
		}
	}
	// Generate backwards one calendar day at a time (the world's stream
	// granularity) until the page fills, newest first, append-encoding
	// each message straight into a pooled buffer.
	bp := jsonx.GetBuf()
	buf := append((*bp)[:0], historyOpen...)
	n := 0
	var last time.Time
	cursor := until
	for n < limit && cursor.After(g.CreatedAt) {
		from := cursor.Add(-1).Truncate(24 * time.Hour)
		if from.Before(g.CreatedAt) {
			from = g.CreatedAt
		}
		// Telegram chats are a single room: channel 0.
		msgs := s.world.Messages(g, 0, from, cursor)
		for i := len(msgs) - 1; i >= 0 && n < limit; i-- {
			m := &msgs[i]
			u := s.world.UserByIdx(platform.Telegram, m.AuthorIdx)
			if n > 0 {
				buf = append(buf, ',')
			}
			buf = appendHistoryMessage(buf, u.ID, m.SentAt.UnixMilli(), m.Type.String(), m.Text)
			last = m.SentAt
			n++
		}
		cursor = from
	}
	buf = appendHistoryEnd(buf, last.UnixMilli(), n == limit)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
	*bp = buf
	jsonx.PutBuf(bp)
}

// A history page renders byte-identically to
// json.NewEncoder(w).Encode(map[string]any{"messages": msgs, ...}) of
// {from_id, date_ms, type, text,omitempty} messages — encoding/json sorts
// map keys, so "messages" precedes "next_offset_date_ms", and Encode
// appends a newline. historyOpen starts the page, appendHistoryMessage
// renders each message and appendHistoryEnd closes it.
const historyOpen = `{"messages":[`

func appendHistoryMessage(dst []byte, fromID uint64, dateMS int64, typ, text string) []byte {
	dst = append(dst, `{"from_id":`...)
	dst = jsonx.AppendUint(dst, fromID)
	dst = append(dst, `,"date_ms":`...)
	dst = jsonx.AppendInt(dst, dateMS)
	dst = append(dst, `,"type":`...)
	dst = jsonx.AppendString(dst, typ)
	if text != "" {
		dst = append(dst, `,"text":`...)
		dst = jsonx.AppendString(dst, text)
	}
	return append(dst, '}')
}

func appendHistoryEnd(dst []byte, next int64, hasNext bool) []byte {
	dst = append(dst, ']')
	if hasNext {
		dst = append(dst, `,"next_offset_date_ms":`...)
		dst = jsonx.AppendInt(dst, next)
	}
	return append(dst, '}', '\n')
}

// userJSON is one participant profile; Phone is present only for opt-in
// users — the paper's 0.68%.
type userJSON struct {
	ID    uint64 `json:"id"`
	Name  string `json:"name"`
	Phone string `json:"phone,omitempty"`
}

func (s *Service) handleParticipants(w http.ResponseWriter, r *http.Request) {
	a := s.apiAuth(w, r)
	if a == nil {
		return
	}
	code := r.PathValue("code")
	if !s.requireMember(w, a, code) {
		return
	}
	g := s.group(code)
	if g == nil {
		writeError(w, http.StatusBadRequest, "CHANNEL_INVALID")
		return
	}
	if g.HiddenMembers {
		writeError(w, http.StatusForbidden, "CHAT_ADMIN_REQUIRED")
		return
	}
	idxs := s.world.MemberIdx(g, s.clock.Now())
	out := make([]userJSON, len(idxs))
	for i, idx := range idxs {
		u := s.world.UserByIdx(platform.Telegram, idx)
		j := userJSON{ID: u.ID, Name: u.Name}
		if u.PhoneVisible {
			j.Phone = u.Phone
		}
		out[i] = j
	}
	bp := jsonx.GetBuf()
	buf := appendParticipantsResponse((*bp)[:0], out)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
	*bp = buf
	jsonx.PutBuf(bp)
}

// appendParticipantsResponse renders the participant list
// byte-identically to the former writeJSON(map[string]any{...}) call.
func appendParticipantsResponse(dst []byte, users []userJSON) []byte {
	dst = append(dst, `{"participants":[`...)
	for i := range users {
		if i > 0 {
			dst = append(dst, ',')
		}
		u := &users[i]
		dst = append(dst, `{"id":`...)
		dst = jsonx.AppendUint(dst, u.ID)
		dst = append(dst, `,"name":`...)
		dst = jsonx.AppendString(dst, u.Name)
		if u.Phone != "" {
			dst = append(dst, `,"phone":`...)
			dst = jsonx.AppendString(dst, u.Phone)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']', '}', '\n')
}

func (s *Service) handleChatInfo(w http.ResponseWriter, r *http.Request) {
	a := s.apiAuth(w, r)
	if a == nil {
		return
	}
	code := r.PathValue("code")
	if !s.requireMember(w, a, code) {
		return
	}
	g := s.group(code)
	if g == nil {
		writeError(w, http.StatusBadRequest, "CHANNEL_INVALID")
		return
	}
	writeJSON(w, map[string]any{
		"title":          g.Title,
		"created_ms":     g.CreatedAt.UnixMilli(),
		"is_channel":     g.IsChannel,
		"members":        s.world.MembersAt(g, s.clock.Now()),
		"hidden_members": g.HiddenMembers,
		"creator_id":     g.CreatorIdx + 1,
	})
}
