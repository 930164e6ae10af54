// Package jsonenc holds the two append-style primitives a hand-written JSON
// encoder needs to stay byte-identical to encoding/json: strings and floats.
// federation.Rows encodes result rows with them and server.Gateway the
// response around the rows, so a query's bytes are written once, into one
// buffer, without a reflective pass or a compaction pass over them.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat formats a finite float64 as encoding/json does: the shortest
// representation that round-trips, in %e form only outside [1e-6, 1e21),
// with a two-digit exponent trimmed to one ("e-07" -> "e-7"). The caller
// rejects NaN and infinities, which JSON cannot carry.
func AppendFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && (buf[n-3] == '-' || buf[n-3] == '+') && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}

// AppendString quotes s as encoding/json does: short escapes for the usual
// control characters, \u00XX for the others, \u2028 and \u2029 always, and
// U+FFFD for bytes that are not valid UTF-8. With escapeHTML (json.Marshal
// and a json.Encoder's default) '<', '>' and '&' become \u003c, \u003e and
// \u0026 as well.
func AppendString(buf []byte, s string, escapeHTML bool) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && (!escapeHTML || (b != '<' && b != '>' && b != '&')) {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
