// Package discord simulates the Discord REST API surfaces the study used:
// the invite endpoint (metadata with approximate member/presence counts,
// readable without joining; expired invites 404 with code 10006), guild
// joining under the 100-guild account cap (bots may not join by
// themselves), channel listings, paginated message history, and user
// profiles exposing connected accounts — the linked-account PII channel of
// Table 5. Guild creation dates are recoverable from snowflake IDs, which
// is exactly how the crawler obtains them.
package discord

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"msgscope/internal/checkpoint"
	"msgscope/internal/faults"
	"msgscope/internal/ids"
	"msgscope/internal/jsonx"
	"msgscope/internal/platform"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
)

// ServiceConfig tunes rate limiting.
type ServiceConfig struct {
	Budget int // requests per Window per account
	Window time.Duration
}

// DefaultServiceConfig approximates Discord's per-route buckets with one
// coarse per-account bucket.
func DefaultServiceConfig() ServiceConfig {
	return ServiceConfig{Budget: 240, Window: time.Minute}
}

// Service simulates the Discord REST API.
type Service struct {
	cfg   ServiceConfig
	world *simworld.World
	clock simclock.Clock

	// Faults, when set, injects failures into every surface.
	Faults *faults.Injector

	mu       sync.Mutex
	accounts map[string]*account
	channels map[uint64]channelRef // channel id -> (group, index)
	userIdx  map[uint64]int        // user id -> pool index
	guilds   map[uint64]*simworld.Group

	// rateBody is the 429 response body, rendered once: rate-limit
	// rejections are too frequent to re-encode the same object each time.
	rateBody []byte
}

type channelRef struct {
	group *simworld.Group
	idx   int
}

type account struct {
	joined     map[string]time.Time // invite code -> join time
	budget     float64
	lastRefill time.Time
}

// NewService builds the service over the world.
func NewService(world *simworld.World, clock simclock.Clock, cfg ServiceConfig) *Service {
	s := &Service{
		cfg:      cfg,
		world:    world,
		clock:    clock,
		accounts: map[string]*account{},
		channels: map[uint64]channelRef{},
		userIdx:  map[uint64]int{},
		guilds:   map[uint64]*simworld.Group{},
	}
	for _, g := range world.Groups[platform.Discord] {
		s.guilds[g.GuildID] = g
	}
	s.rateBody, _ = json.Marshal(map[string]any{"message": "You are being rate limited.", "retry_after": 1.5, "global": false})
	s.rateBody = append(s.rateBody, '\n')
	return s
}

// AccountStates snapshots every account's rate bucket and guild memberships
// for a checkpoint, sorted by name (and joins by code) for stable output.
// The channel and user-index caches are not captured: both are lazily
// repopulated by the same deterministic requests that filled them.
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
// must pre-create them with their exact bucket position.
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

// Handler returns the HTTP mux (API v9 paths; account via X-DC-Account).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v9/invites/{code}", s.faulty(s.handleInvite))
	mux.HandleFunc("POST /api/v9/invites/{code}", s.faulty(s.handleJoin))
	mux.HandleFunc("GET /api/v9/guilds/{gid}/channels", s.faulty(s.handleChannels))
	mux.HandleFunc("GET /api/v9/channels/{cid}/messages", s.faulty(s.handleMessages))
	mux.HandleFunc("GET /api/v9/users/{uid}/profile", s.faulty(s.handleProfile))
	return mux
}

// faulty runs fault interception before the handler. Injected floods use
// Discord's native 429 body so client handling matches organic buckets.
func (s *Service) faulty(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Faults.Intercept(w, r, "X-DC-Account", func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write(s.rateBody)
		}) {
			return
		}
		h(w, r)
	}
}

func (s *Service) group(code string) *simworld.Group {
	return s.world.GroupByCode(platform.Discord, code)
}

func apiError(w http.ResponseWriter, status, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"message": msg, "code": code})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// rateLimit authenticates (if authed is true) and charges the bucket; it
// reports whether the request may proceed.
func (s *Service) rateLimit(w http.ResponseWriter, r *http.Request) (*account, bool) {
	name := r.Header.Get("X-DC-Account")
	if name == "" {
		apiError(w, http.StatusUnauthorized, 0, "401: Unauthorized")
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.accounts[name]
	if !ok {
		a = &account{
			joined:     map[string]time.Time{},
			budget:     float64(s.cfg.Budget),
			lastRefill: s.clock.Now(),
		}
		s.accounts[name] = a
	}
	now := s.clock.Now()
	if el := now.Sub(a.lastRefill); el > 0 {
		a.budget += float64(s.cfg.Budget) * float64(el) / float64(s.cfg.Window)
		if a.budget > float64(s.cfg.Budget) {
			a.budget = float64(s.cfg.Budget)
		}
		a.lastRefill = now
	}
	if a.budget < 1 {
		w.Header().Set("X-RateLimit-Remaining", "0")
		w.Header().Set("X-RateLimit-Reset-After", "1.5")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write(s.rateBody)
		return nil, false
	}
	a.budget--
	w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(int(a.budget)))
	return a, true
}

// handleInvite serves invite metadata without requiring membership — the
// endpoint is public (no account, no rate bucket), which is what made the
// paper's daily probing of 227K invites feasible. Expired invites return
// 404 with Discord's "Unknown Invite" code 10006.
func (s *Service) handleInvite(w http.ResponseWriter, r *http.Request) {
	code := r.PathValue("code")
	g := s.group(code)
	now := s.clock.Now()
	if g == nil || !s.world.AliveAt(g, now) {
		apiError(w, http.StatusNotFound, 10006, "Unknown Invite")
		return
	}
	withCounts := r.URL.Query().Get("with_counts") == "true"
	var members, online int
	if withCounts {
		members = s.world.MembersAt(g, now)
		online = s.world.OnlineAt(g, now)
	}
	bp := jsonx.GetBuf()
	buf := appendInviteResponse((*bp)[:0], code, g, withCounts, members, online)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
	*bp = buf
	jsonx.PutBuf(bp)
}

// appendInviteResponse renders the invite metadata byte-identically to
// the former writeJSON(map[string]any{...}) call; encoding/json sorts
// the map keys, so the approximate_* counts lead when present.
func appendInviteResponse(dst []byte, code string, g *simworld.Group, withCounts bool, members, online int) []byte {
	dst = append(dst, '{')
	if withCounts {
		dst = append(dst, `"approximate_member_count":`...)
		dst = jsonx.AppendInt(dst, int64(members))
		dst = append(dst, `,"approximate_presence_count":`...)
		dst = jsonx.AppendInt(dst, int64(online))
		dst = append(dst, ',')
	}
	dst = append(dst, `"code":`...)
	dst = jsonx.AppendString(dst, code)
	dst = append(dst, `,"guild":{"id":"`...)
	dst = jsonx.AppendUint(dst, g.GuildID)
	dst = append(dst, `","name":`...)
	dst = jsonx.AppendString(dst, g.Title)
	dst = append(dst, `},"inviter":{"id":"`...)
	dst = jsonx.AppendInt(dst, int64(g.CreatorIdx+1))
	dst = append(dst, `","username":"creator`...)
	dst = jsonx.AppendInt(dst, int64(g.CreatorIdx))
	dst = append(dst, '"', '}', '}')
	return append(dst, '\n')
}

// handleJoin accepts an invite. Bot accounts (names with a "bot:" prefix)
// may not join on their own — the restriction that forced the study to use
// a regular user account.
func (s *Service) handleJoin(w http.ResponseWriter, r *http.Request) {
	a, ok := s.rateLimit(w, r)
	if !ok {
		return
	}
	name := r.Header.Get("X-DC-Account")
	if len(name) >= 4 && name[:4] == "bot:" {
		apiError(w, http.StatusForbidden, 20001, "Bots cannot use this endpoint")
		return
	}
	code := r.PathValue("code")
	g := s.group(code)
	now := s.clock.Now()
	if g == nil || !s.world.AliveAt(g, now) {
		apiError(w, http.StatusNotFound, 10006, "Unknown Invite")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := a.joined[code]; !dup && len(a.joined) >= 100 {
		apiError(w, http.StatusBadRequest, 30001, "Maximum number of guilds reached (100)")
		return
	}
	a.joined[code] = now
	writeJSON(w, map[string]any{
		"code":  code,
		"guild": map[string]any{"id": strconv.FormatUint(g.GuildID, 10), "name": g.Title},
	})
}

func (s *Service) memberOfGuild(a *account, g *simworld.Group) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := a.joined[g.Code]
	return ok
}

// channelID derives a stable channel snowflake and registers it.
func (s *Service) channelID(g *simworld.Group, idx int) uint64 {
	cid := ids.Snowflake(ids.DiscordEpochMS, g.CreatedAt.Add(time.Duration(idx)*time.Minute),
		uint32(g.GuildID&0x3FF)<<8|uint32(idx))
	s.mu.Lock()
	s.channels[cid] = channelRef{group: g, idx: idx}
	s.mu.Unlock()
	return cid
}

func (s *Service) handleChannels(w http.ResponseWriter, r *http.Request) {
	a, ok := s.rateLimit(w, r)
	if !ok {
		return
	}
	gid, err := strconv.ParseUint(r.PathValue("gid"), 10, 64)
	if err != nil {
		apiError(w, http.StatusBadRequest, 50035, "Invalid Form Body")
		return
	}
	s.mu.Lock()
	g := s.guilds[gid]
	s.mu.Unlock()
	if g == nil {
		apiError(w, http.StatusNotFound, 10004, "Unknown Guild")
		return
	}
	if !s.memberOfGuild(a, g) {
		apiError(w, http.StatusForbidden, 50001, "Missing Access")
		return
	}
	out := make([]map[string]any, g.Channels)
	for i := 0; i < g.Channels; i++ {
		out[i] = map[string]any{
			"id":   strconv.FormatUint(s.channelID(g, i), 10),
			"name": fmt.Sprintf("general-%d", i),
			"type": 0, // GUILD_TEXT
		}
	}
	writeJSON(w, out)
}

// discordEpoch is the snowflake epoch: the earliest time an ID encodes.
var discordEpoch = time.UnixMilli(ids.DiscordEpochMS).UTC()

// handleMessages pages a channel's history newest-first via the `before`
// snowflake cursor, exactly like GET /channels/{id}/messages.
func (s *Service) handleMessages(w http.ResponseWriter, r *http.Request) {
	a, ok := s.rateLimit(w, r)
	if !ok {
		return
	}
	cid, err := strconv.ParseUint(r.PathValue("cid"), 10, 64)
	if err != nil {
		apiError(w, http.StatusBadRequest, 50035, "Invalid Form Body")
		return
	}
	s.mu.Lock()
	ref, found := s.channels[cid]
	s.mu.Unlock()
	if !found {
		apiError(w, http.StatusNotFound, 10003, "Unknown Channel")
		return
	}
	g := ref.group
	if !s.memberOfGuild(a, g) {
		apiError(w, http.StatusForbidden, 50001, "Missing Access")
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = min(n, 100)
		}
	}
	until := s.clock.Now()
	if v := r.URL.Query().Get("before"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			apiError(w, http.StatusBadRequest, 50035, "Invalid Form Body")
			return
		}
		until = ids.SnowflakeTime(ids.DiscordEpochMS, id)
	}

	// History stops at the guild's creation or the snowflake epoch,
	// whichever is later: a message before the epoch has no snowflake of
	// its own (ids.Snowflake clamps it to ms 0), so a `before` cursor
	// could never page past it.
	floor := g.CreatedAt
	if floor.Before(discordEpoch) {
		floor = discordEpoch
	}

	// Walk this channel back one calendar day (one world stream) at a
	// time until the page fills, append-encoding each message straight
	// into a pooled buffer. An empty page must render as null: the old
	// code marshalled a nil []msgOut slice.
	bp := jsonx.GetBuf()
	buf := (*bp)[:0]
	buf = append(buf, '[')
	n := 0
	cursor := until
	for n < limit && cursor.After(floor) {
		from := cursor.Add(-1).Truncate(24 * time.Hour)
		if from.Before(floor) {
			from = floor
		}
		msgs := s.world.Messages(g, ref.idx, from, cursor)
		for i := len(msgs) - 1; i >= 0 && n < limit; i-- {
			m := &msgs[i]
			u := s.world.UserByIdx(platform.Discord, m.AuthorIdx)
			s.mu.Lock()
			s.userIdx[u.ID] = m.AuthorIdx
			s.mu.Unlock()
			// The world's Seq uniquely identifies a message within its
			// millisecond, so snowflakes are collision-free and stable
			// across paginated fetches.
			mid := ids.Snowflake(ids.DiscordEpochMS, m.SentAt, m.Seq)
			if n > 0 {
				buf = append(buf, ',')
			}
			buf = appendMessageOut(buf, mid, u.ID, u.Name, m.SentAt, m.Type.String(), m.Text)
			n++
		}
		cursor = from
	}
	w.Header().Set("Content-Type", "application/json")
	if n == 0 {
		buf = append(buf[:0], `null`...)
	} else {
		buf = append(buf, ']')
	}
	buf = append(buf, '\n')
	w.Write(buf)
	*bp = buf
	jsonx.PutBuf(bp)
}

// appendMessageOut renders one history message byte-identically to the
// json.Marshal encoding of the former msgOut struct.
func appendMessageOut(dst []byte, mid, uid uint64, username string, sentAt time.Time, msgType, content string) []byte {
	dst = append(dst, `{"id":"`...)
	dst = jsonx.AppendUint(dst, mid)
	dst = append(dst, `","author":{"id":"`...)
	dst = jsonx.AppendUint(dst, uid)
	dst = append(dst, `","username":`...)
	dst = jsonx.AppendString(dst, username)
	dst = append(dst, `},"timestamp":`...)
	dst = appendRFC3339Nano(dst, sentAt)
	dst = append(dst, `,"x_type":`...)
	dst = jsonx.AppendString(dst, msgType)
	if content != "" {
		dst = append(dst, `,"content":`...)
		dst = jsonx.AppendString(dst, content)
	}
	return append(dst, '}')
}

// appendRFC3339Nano appends the quoted Format(time.RFC3339Nano)
// rendering of t. The day-to-day path is UTC with a 4-digit year;
// anything else falls back to Format.
func appendRFC3339Nano(dst []byte, t time.Time) []byte {
	year, month, day := t.Date()
	if t.Location() != time.UTC || year < 1000 || year > 9999 {
		dst = append(dst, '"')
		dst = t.AppendFormat(dst, time.RFC3339Nano)
		return append(dst, '"')
	}
	hh, mm, ss := t.Clock()
	dst = append(dst, '"')
	dst = append(dst, byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '-')
	dst = append(dst, byte('0'+int(month)/10), byte('0'+int(month)%10), '-')
	dst = append(dst, byte('0'+day/10), byte('0'+day%10), 'T')
	dst = append(dst, byte('0'+hh/10), byte('0'+hh%10), ':')
	dst = append(dst, byte('0'+mm/10), byte('0'+mm%10), ':')
	dst = append(dst, byte('0'+ss/10), byte('0'+ss%10))
	if ns := t.Nanosecond(); ns != 0 {
		var frac [9]byte
		for i := 8; i >= 0; i-- {
			frac[i] = byte('0' + ns%10)
			ns /= 10
		}
		end := 9
		for end > 0 && frac[end-1] == '0' {
			end--
		}
		dst = append(dst, '.')
		dst = append(dst, frac[:end]...)
	}
	return append(dst, 'Z', '"')
}

// handleProfile exposes a user's profile with connected accounts — the PII
// leak of Table 5. Only users previously observed (e.g. as message authors)
// resolve; others 404.
func (s *Service) handleProfile(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.rateLimit(w, r); !ok {
		return
	}
	uid, err := strconv.ParseUint(r.PathValue("uid"), 10, 64)
	if err != nil {
		apiError(w, http.StatusBadRequest, 50035, "Invalid Form Body")
		return
	}
	s.mu.Lock()
	idx, found := s.userIdx[uid]
	s.mu.Unlock()
	if !found {
		apiError(w, http.StatusNotFound, 10013, "Unknown User")
		return
	}
	u := s.world.UserByIdx(platform.Discord, idx)
	conns := make([]map[string]string, len(u.Linked))
	for i, l := range u.Linked {
		conns[i] = map[string]string{"type": l, "name": u.Name}
	}
	writeJSON(w, map[string]any{
		"user":               map[string]string{"id": strconv.FormatUint(u.ID, 10), "username": u.Name},
		"connected_accounts": conns,
	})
}
