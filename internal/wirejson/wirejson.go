// Package wirejson is the hand-written JSON codec behind the serving wire
// types (daemon.Request/Response, require.Requirement, flow.Graph).
//
// The encoder half appends values exactly as encoding/json would marshal
// them: integers in plain decimal (strconv.AppendInt, as encoding/json does),
// floats in its shortest round-trip form, and strings with the same escaping
// (HTML-safe, U+2028/U+2029 escaped, invalid UTF-8 replaced by U+FFFD).
// Callers append struct fields in declaration order and apply omitempty
// themselves.
//
// The decoder half, Reader, parses only the canonical shape the wire clients
// emit: objects with known, unescaped keys, each at most once; integers
// without fraction or exponent; ASCII strings without escapes. Any other
// input — valid JSON included — makes the Reader fail, and the caller hands
// the whole message to encoding/json instead. A successful parse therefore
// decodes to exactly the value encoding/json would, and every input it
// rejects is judged by encoding/json itself, so the accepted set is
// encoding/json's by construction.
package wirejson

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Reader is a cursor over one JSON message. Its methods do nothing once the
// Reader has failed; check Failed (or End) after reading a whole value.
type Reader struct {
	data []byte
	pos  int
	bad  bool
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Failed reports whether the input left the canonical shape.
func (r *Reader) Failed() bool { return r.bad }

// Fail marks the input as non-canonical, e.g. on a duplicate or unknown key.
func (r *Reader) Fail() {
	r.bad = true
	r.pos = len(r.data)
}

func (r *Reader) space() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// Expect consumes the delimiter c: '{', '[', ',' or ']'.
func (r *Reader) Expect(c byte) {
	r.space()
	if r.pos >= len(r.data) || r.data[r.pos] != c {
		r.Fail()
		return
	}
	r.pos++
}

// More reports whether the object or array opened by Expect has another
// member, consuming the comma before it or the closing delimiter. n is the
// number of members already read.
func (r *Reader) More(closing byte, n int) bool {
	r.space()
	if r.pos >= len(r.data) {
		r.Fail()
		return false
	}
	switch c := r.data[r.pos]; {
	case c == closing:
		r.pos++
		return false
	case n == 0:
		return true
	case c == ',':
		r.pos++
		return true
	}
	r.Fail()
	return false
}

// Once marks bit in seen, failing if it was already set: the canonical shape
// names each key at most once.
func (r *Reader) Once(seen *uint32, bit uint32) {
	if *seen&bit != 0 {
		r.Fail()
	}
	*seen |= bit
}

// Key reads an object key and the colon after it. The bytes alias the input.
func (r *Reader) Key() []byte {
	k := r.Bytes()
	r.space()
	if r.pos >= len(r.data) || r.data[r.pos] != ':' {
		r.Fail()
		return nil
	}
	r.pos++
	return k
}

// Bytes reads a string of printable ASCII without escapes and returns its
// contents, aliasing the input.
func (r *Reader) Bytes() []byte {
	r.space()
	if r.pos >= len(r.data) || r.data[r.pos] != '"' {
		r.Fail()
		return nil
	}
	start := r.pos + 1
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			r.pos = i + 1
			return r.data[start:i]
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			r.Fail()
			return nil
		}
	}
	r.Fail()
	return nil
}

// digits reads an unsigned decimal integer in JSON's grammar (no leading
// zeros) that fits below limit+1.
func (r *Reader) digits(limit uint64) uint64 {
	start := r.pos
	var v uint64
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (limit-d)/10 {
			r.Fail()
			return 0
		}
		v = v*10 + d
		r.pos++
	}
	if r.pos == start || (r.data[start] == '0' && r.pos-start > 1) {
		r.Fail()
		return 0
	}
	return v
}

// Int reads an integer that fits a signed integer of the given bit size.
func (r *Reader) Int(bits int) int64 {
	r.space()
	neg := r.pos < len(r.data) && r.data[r.pos] == '-'
	if neg {
		r.pos++
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	v := r.digits(limit)
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// Uint reads a non-negative integer that fits a uint64.
func (r *Reader) Uint() uint64 {
	r.space()
	return r.digits(1<<64 - 1)
}

// Ints reads an array of integers into a fresh, non-nil slice (encoding/json
// decodes [] to an empty slice, not nil).
func (r *Reader) Ints() []int {
	out := []int{}
	r.Expect('[')
	for n := 0; r.More(']', n); n++ {
		out = append(out, int(r.Int(strconv.IntSize)))
	}
	return out
}

// End reports whether the whole input was one canonical value: nothing but
// whitespace may follow it.
func (r *Reader) End() bool {
	r.space()
	if r.pos != len(r.data) {
		r.Fail()
	}
	return !r.bad
}

// AppendInts appends a JSON array of integers; nil encodes as null, as in
// encoding/json.
func AppendInts(dst []byte, vs []int) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// AppendFloat appends f as encoding/json marshals a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 on
// (with the exponent's leading zero dropped, e-7 not e-07), and an error for
// NaN and the infinities, which JSON cannot carry.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendString appends s as a JSON string with encoding/json's escaping:
// quote, backslash and control characters escaped (\b \f \n \r \t short),
// '<', '>' and '&' as \u003c \u003e \u0026, U+2028 and U+2029 escaped,
// and each byte of invalid UTF-8 replaced by \ufffd.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
