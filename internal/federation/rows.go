package federation

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Rows is a result's row set. It encodes itself to JSON in one append-style
// pass — byte for byte what encoding/json produces for a plain []Row, at a
// fraction of the cost of reflecting over every row's map.
type Rows []Row

// MarshalJSON implements json.Marshaler. Like encoding/json it refuses NaN
// and infinite coordinates with a *json.UnsupportedValueError. It leaves
// '<', '>' and '&' in archive names alone: the calling encoder escapes them
// when it compacts a Marshaler's output, or not, as it was configured.
func (rs Rows) MarshalJSON() ([]byte, error) {
	if rs == nil {
		return []byte("null"), nil
	}
	// About 150 bytes per object: six field names, two integers and four
	// shortest-round-trip floats.
	perRow := 16
	if len(rs) > 0 {
		perRow += 160 * len(rs[0].Objects)
	}
	buf := make([]byte, 0, 2+len(rs)*perRow)
	var (
		err     error
		keysBuf [8]string
		keys    = keysBuf[:0]
	)
	buf = append(buf, '[')
	for i, r := range rs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if r.Objects == nil {
			buf = append(buf, `{"Objects":null}`...)
			continue
		}
		keys = keys[:0]
		for k := range r.Objects {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		buf = append(buf, `{"Objects":{`...)
		for j, k := range keys {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, k)
			buf = append(buf, ':')
			if buf, err = appendObject(buf, r.Objects[k]); err != nil {
				return nil, err
			}
		}
		buf = append(buf, "}}"...)
	}
	return append(buf, ']'), nil
}

func appendObject(buf []byte, o Object) ([]byte, error) {
	buf = append(buf, `{"ID":`...)
	buf = strconv.AppendUint(buf, o.ID, 10)
	buf = append(buf, `,"HTMID":`...)
	buf = strconv.AppendUint(buf, o.HTMID, 10)
	for _, f := range [...]struct {
		name string
		v    float64
	}{{`,"X":`, o.X}, {`,"Y":`, o.Y}, {`,"Z":`, o.Z}, {`,"Mag":`, o.Mag}} {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f.v), Str: strconv.FormatFloat(f.v, 'g', -1, 64)}
		}
		buf = append(buf, f.name...)
		buf = appendJSONFloat(buf, f.v)
	}
	return append(buf, '}'), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest representation that round-trips, in %e form only outside
// [1e-6, 1e21), with a two-digit exponent trimmed to one ("e-07" -> "e-7").
func appendJSONFloat(buf []byte, f float64) []byte {
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

// appendJSONString quotes s as encoding/json does with HTML escaping off:
// short escapes for the usual control characters, \u00XX for the others,
// \u2028 and \u2029 always, and U+FFFD for bytes that are not valid UTF-8.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
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
