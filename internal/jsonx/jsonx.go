// Package jsonx provides allocation-light JSON helpers for the hot
// encode/decode paths of the simulated services and their clients.
//
// Its callers are the wire paths that run many times per study day: the
// Twitter search and stream bodies, Discord invite resolution and message
// pages, Telegram history pages and WhatsApp message pages. Everything
// else — the store's dataset files and checkpoint logs, member lists,
// group metadata — uses encoding/json: swapped onto this package, none of
// them saved a measurable share of study time.
//
// The append-style encoder produces output byte-identical to
// encoding/json with its default options (HTML escaping on), so
// handlers can switch between the two without changing the wire format.
// The cursor decoder walks a []byte in place: object keys and string
// values are surfaced as transient sub-slices of the input (valid only
// until the next decoder call) so callers can intern or convert without
// an intermediate string allocation. Malformed input yields an error,
// never a panic — the fault injector serves truncated bodies on purpose
// and the retry layer depends on a clean error surface.
package jsonx

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// ---------------------------------------------------------------------------
// Buffer pool

const maxPooledBuf = 1 << 20 // don't retain >1MB scratch buffers

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a reusable byte buffer with length 0. Release it with
// PutBuf when no data reachable from it is retained.
func GetBuf() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuf returns a buffer to the pool. Oversized buffers are dropped so
// one huge response does not pin memory forever.
func PutBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledBuf {
		return
	}
	bufPool.Put(bp)
}

// ReadInto reads r to EOF appending into (*bp)[:0], growing *bp as
// needed, and returns the filled slice. The grown backing array stays in
// *bp so a pooled buffer keeps its capacity for the next use.
func ReadInto(bp *[]byte, r io.Reader) ([]byte, error) {
	b := (*bp)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*bp = b
			if err == io.EOF {
				return b, nil
			}
			return b, err
		}
	}
}

// ---------------------------------------------------------------------------
// Encoder

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal (including the
// surrounding quotes), using the same escaping rules as encoding/json
// with HTML escaping enabled: ", \, control characters, <, >, &, and
// U+2028/U+2029 are escaped; invalid UTF-8 becomes U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeASCII[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// control chars, <, >, &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// safeASCII marks ASCII bytes that need no escaping under
// encoding/json's default (HTML-escaping) encoder.
var safeASCII = func() (t [utf8.RuneSelf]bool) {
	for i := 0x20; i < utf8.RuneSelf; i++ {
		t[i] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

// AppendUint appends the decimal representation of v.
func AppendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// AppendInt appends the decimal representation of v.
func AppendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// ---------------------------------------------------------------------------
// Decoder

// Dec is a cursor over a complete JSON document held in memory. The
// zero value is empty; point it at input with Reset. Methods advance the
// cursor and return typed errors on malformed input. Byte slices
// returned by ObjEach keys and StrBytes alias either the input or an
// internal scratch buffer and are only valid until the next call.
type Dec struct {
	b       []byte
	i       int
	scratch []byte
}

// Reset points the decoder at b and rewinds it.
func (d *Dec) Reset(b []byte) {
	d.b = b
	d.i = 0
}

var (
	errUnexpectedEnd = errors.New("jsonx: unexpected end of input")
)

func (d *Dec) errAt(what string) error {
	if d.i >= len(d.b) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("jsonx: %s at offset %d (%q)", what, d.i, d.b[d.i])
}

func (d *Dec) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *Dec) expect(c byte) error {
	d.ws()
	if d.i >= len(d.b) || d.b[d.i] != c {
		return d.errAt("expected '" + string(c) + "'")
	}
	d.i++
	return nil
}

// More reports whether any non-whitespace input remains.
func (d *Dec) More() bool {
	d.ws()
	return d.i < len(d.b)
}

// End verifies only whitespace remains after the decoded value.
func (d *Dec) End() error {
	if d.More() {
		return d.errAt("trailing data")
	}
	return nil
}

// Obj decodes an object, calling field for each key. The key slice is
// transient. field must consume exactly one value.
func (d *Dec) Obj(field func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == '}' {
		d.i++
		return nil
	}
	for {
		d.ws()
		key, err := d.strBytes()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		if d.i >= len(d.b) {
			return errUnexpectedEnd
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.errAt("expected ',' or '}'")
		}
	}
}

// Arr decodes an array, calling elem once per element. elem must
// consume exactly one value.
func (d *Dec) Arr(elem func() error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.ws()
		if d.i >= len(d.b) {
			return errUnexpectedEnd
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.errAt("expected ',' or ']'")
		}
	}
}

// strBytes decodes a string literal, returning a transient byte view.
func (d *Dec) strBytes() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			s := d.b[start:d.i]
			d.i++
			return s, nil
		}
		if c == '\\' {
			return d.strBytesSlow(start)
		}
		if c < 0x20 {
			return nil, d.errAt("control character in string")
		}
		d.i++
	}
	return nil, errUnexpectedEnd
}

// strBytesSlow handles strings containing escapes, unescaping into the
// decoder's scratch buffer. d.i points at the first backslash; start is
// the offset just after the opening quote.
func (d *Dec) strBytesSlow(start int) ([]byte, error) {
	d.scratch = append(d.scratch[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return d.scratch, nil
		case c == '\\':
			d.i++
			if d.i >= len(d.b) {
				return nil, errUnexpectedEnd
			}
			switch e := d.b[d.i]; e {
			case '"', '\\', '/':
				d.scratch = append(d.scratch, e)
				d.i++
			case 'b':
				d.scratch = append(d.scratch, '\b')
				d.i++
			case 'f':
				d.scratch = append(d.scratch, '\f')
				d.i++
			case 'n':
				d.scratch = append(d.scratch, '\n')
				d.i++
			case 'r':
				d.scratch = append(d.scratch, '\r')
				d.i++
			case 't':
				d.scratch = append(d.scratch, '\t')
				d.i++
			case 'u':
				r, err := d.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					if d.i+1 < len(d.b) && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
						save := d.i
						d.i++ // past '\\'; hex4 steps past the 'u'
						r2, err := d.hex4()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							r = dec
						} else {
							d.i = save
							r = utf8.RuneError
						}
					} else {
						r = utf8.RuneError
					}
				}
				d.scratch = utf8.AppendRune(d.scratch, r)
			default:
				return nil, d.errAt("invalid escape")
			}
		case c < 0x20:
			return nil, d.errAt("control character in string")
		default:
			d.scratch = append(d.scratch, c)
			d.i++
		}
	}
	return nil, errUnexpectedEnd
}

// hex4 consumes four hex digits after "\u" (d.i points at the 'u').
func (d *Dec) hex4() (rune, error) {
	d.i++ // past 'u'
	if d.i+4 > len(d.b) {
		return 0, errUnexpectedEnd
	}
	var r rune
	for k := 0; k < 4; k++ {
		c := d.b[d.i+k]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, d.errAt("invalid \\u escape")
		}
	}
	d.i += 4
	return r, nil
}

// StrBytes decodes a string value as a transient byte view — intern or
// copy before the next decoder call if the value must be retained.
func (d *Dec) StrBytes() ([]byte, error) {
	return d.strBytes()
}

// Str decodes a string value into a freshly allocated string.
func (d *Dec) Str() (string, error) {
	b, err := d.strBytes()
	return string(b), err
}

// Uint decodes a non-negative integer value.
func (d *Dec) Uint() (uint64, error) {
	d.ws()
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	if d.i == start {
		return 0, d.errAt("expected digit")
	}
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		return 0, d.errAt("expected integer")
	}
	// Inline digit fold: strconv.ParseUint would heap-allocate the
	// string conversion because its error paths retain the argument.
	var v uint64
	for _, c := range d.b[start:d.i] {
		digit := uint64(c - '0')
		if v > (^uint64(0)-digit)/10 {
			d.i = start
			return 0, d.errAt("integer overflow")
		}
		v = v*10 + digit
	}
	return v, nil
}

// Int decodes a (possibly negative) integer value.
func (d *Dec) Int() (int64, error) {
	d.ws()
	neg := false
	if d.i < len(d.b) && d.b[d.i] == '-' {
		neg = true
		d.i++
	}
	u, err := d.Uint()
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// Bool decodes true or false.
func (d *Dec) Bool() (bool, error) {
	d.ws()
	if d.hasPrefix("true") {
		d.i += 4
		return true, nil
	}
	if d.hasPrefix("false") {
		d.i += 5
		return false, nil
	}
	return false, d.errAt("expected bool")
}

// Null consumes a null value if one is next and reports whether it did.
func (d *Dec) Null() bool {
	d.ws()
	if d.hasPrefix("null") {
		d.i += 4
		return true
	}
	return false
}

func (d *Dec) hasPrefix(s string) bool {
	if d.i+len(s) > len(d.b) {
		return false
	}
	return string(d.b[d.i:d.i+len(s)]) == s
}

func (d *Dec) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// Skip consumes one value of any type.
func (d *Dec) Skip() error {
	d.ws()
	if d.i >= len(d.b) {
		return errUnexpectedEnd
	}
	switch c := d.b[d.i]; {
	case c == '{':
		return d.Obj(func([]byte) error { return d.Skip() })
	case c == '[':
		return d.Arr(func() error { return d.Skip() })
	case c == '"':
		_, err := d.strBytes()
		return err
	case c == 't' || c == 'f':
		_, err := d.Bool()
		return err
	case c == 'n':
		if d.Null() {
			return nil
		}
		return d.errAt("expected null")
	case c == '-' || (c >= '0' && c <= '9'):
		return d.skipNumber()
	default:
		return d.errAt("unexpected value")
	}
}

func (d *Dec) skipNumber() error {
	start := d.i
	bad := func() error { d.i = start; return d.errAt("malformed number") }
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case c >= '1' && c <= '9':
		for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
			d.i++
		}
	default:
		return bad()
	}
	if d.peek() == '.' {
		d.i++
		if c := d.peek(); c < '0' || c > '9' {
			return bad()
		}
		for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
			d.i++
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if c := d.peek(); c < '0' || c > '9' {
			return bad()
		}
		for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
			d.i++
		}
	}
	return nil
}
