package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// responseWire is Response without its methods: the field layout
// encoding/json decodes into by reflection, and so the reference every
// other decode of a reply must agree with.
type responseWire Response

// MarshalJSON emits drop_module exactly when the outcome is "dropped" — for
// every drop, including module 0. (A plain `omitempty` tag silently omitted
// drops at module 0, which clients then decoded as the zero value:
// indistinguishable from "no drop module".)
func (r Response) MarshalJSON() ([]byte, error) {
	if math.IsNaN(r.LatencyMS) || math.IsInf(r.LatencyMS, 0) {
		return nil, &json.UnsupportedValueError{
			Value: reflect.ValueOf(r.LatencyMS),
			Str:   strconv.FormatFloat(r.LatencyMS, 'g', -1, 64),
		}
	}
	return appendResponse(nil, r), nil
}

// appendResponse appends r as the JSON object encoding/json writes for it —
// the same bytes, key order, float format and string escaping — without
// reflection or allocation beyond growing dst. LatencyMS must be finite
// (MarshalJSON refuses the rest; the server only ever sets finite values).
func appendResponse(dst []byte, r Response) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, string(r.Outcome))
	dst = append(dst, `,"latency_ms":`...)
	dst = appendJSONFloat(dst, r.LatencyMS)
	if r.Outcome == OutcomeDropped {
		dst = append(dst, `,"drop_module":`...)
		dst = strconv.AppendInt(dst, int64(r.DropModule), 10)
	}
	return append(dst, '}')
}

// appendJSONFloat formats f as encoding/json does: ES6 number-to-string,
// shortest digits, 'e' notation below 1e-6 and from 1e21 on, and a two-digit
// negative exponent trimmed to one ("1e-07" becomes "1e-7").
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString quotes s as encoding/json does with HTML escaping on (its
// default): '"' and '\\' backslashed, \b \f \n \r \t by name, the other
// control bytes and '<', '>', '&' as \u00XX, U+2028 and U+2029 as \u202X,
// and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
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
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
		case c == 0x2028 || c == 0x2029: // line and paragraph separators
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalJSON decodes a reply. The exact layout appendResponse writes —
// the server's own bytes, trailing whitespace allowed — is read in place
// without allocating; anything else (other key orders or spacing, escapes,
// unknown keys or outcomes, nulls, malformed input) goes to encoding/json's
// reflective decode, so the result is always what encoding/json would have
// decoded, fields absent from the input left as they were.
func (r *Response) UnmarshalJSON(data []byte) error {
	if r.decodeOwn(data) {
		return nil
	}
	return json.Unmarshal(data, (*responseWire)(r))
}

// decodeOwn is UnmarshalJSON's in-place path. It reports false, having
// changed nothing, unless data is exactly
// {"id":U,"outcome":"O","latency_ms":F[,"drop_module":I]} followed by JSON
// whitespace only, with O one of the four outcomes and U, F and I JSON
// numbers that strconv parses into their fields without error.
func (r *Response) decodeOwn(data []byte) bool {
	p := data
	var ok bool
	if p, ok = cutPrefix(p, `{"id":`); !ok {
		return false
	}
	num, p := scanNumber(p)
	if !isJSONInt(num) {
		return false
	}
	id, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		return false
	}
	if p, ok = cutPrefix(p, `,"outcome":"`); !ok {
		return false
	}
	var out Outcome
	for _, o := range [...]Outcome{OutcomeGood, OutcomeLate, OutcomeDropped, OutcomeRejected} {
		if rest, ok := cutPrefix(p, string(o)+`"`); ok {
			out, p = o, rest
			break
		}
	}
	if out == "" {
		return false
	}
	if p, ok = cutPrefix(p, `,"latency_ms":`); !ok {
		return false
	}
	if num, p = scanNumber(p); !isJSONNumber(num) {
		return false
	}
	lat, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return false
	}
	drop, hasDrop := 0, false
	if rest, ok := cutPrefix(p, `,"drop_module":`); ok {
		if num, p = scanNumber(rest); !isJSONInt(num) {
			return false
		}
		d, err := strconv.ParseInt(string(num), 10, 0)
		if err != nil {
			return false
		}
		drop, hasDrop = int(d), true
	}
	if p, ok = cutPrefix(p, `}`); !ok {
		return false
	}
	for _, c := range p {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	r.ID, r.Outcome, r.LatencyMS = id, out, lat
	if hasDrop {
		r.DropModule = drop
	}
	return true
}

// cutPrefix is bytes.CutPrefix for a string prefix.
func cutPrefix(p []byte, prefix string) ([]byte, bool) {
	if len(p) < len(prefix) || string(p[:len(prefix)]) != prefix {
		return p, false
	}
	return p[len(prefix):], true
}

// scanNumber splits off the longest prefix of p made of bytes a JSON number
// can contain; isJSONNumber then checks the grammar.
func scanNumber(p []byte) (num, rest []byte) {
	i := 0
	for i < len(p) && (p[i] >= '0' && p[i] <= '9' || p[i] == '-' || p[i] == '+' || p[i] == '.' || p[i] == 'e' || p[i] == 'E') {
		i++
	}
	return p[:i], p[i:]
}

// isJSONInt reports whether s is a JSON number with neither fraction nor
// exponent: -?(0|[1-9][0-9]*).
func isJSONInt(s []byte) bool {
	return isJSONNumber(s) && bytes.IndexAny(s, ".eE") < 0
}

// isJSONNumber reports whether s is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func isJSONNumber(s []byte) bool {
	if len(s) > 0 && s[0] == '-' {
		s = s[1:]
	}
	d := digitsPrefix(s)
	if len(d) == 0 || d[0] == '0' && len(d) > 1 {
		return false
	}
	s = s[len(d):]
	if len(s) > 0 && s[0] == '.' {
		if d = digitsPrefix(s[1:]); len(d) == 0 {
			return false
		}
		s = s[1+len(d):]
	}
	if len(s) > 0 && (s[0] == 'e' || s[0] == 'E') {
		s = s[1:]
		if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
			s = s[1:]
		}
		if d = digitsPrefix(s); len(d) == 0 {
			return false
		}
		s = s[len(d):]
	}
	return len(s) == 0
}

// digitsPrefix returns the run of ASCII digits that s starts with.
func digitsPrefix(s []byte) []byte {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return s[:i]
}
