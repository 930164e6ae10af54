package federation

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"liferaft/internal/jsonenc"
)

// Row is one result tuple: the object observed by each archive. A row the
// portal built is a view — the plan's archive names beside the row's run of
// the result's one object array — and costs no allocation of its own; a row
// decoded from JSON holds its tuple in Objects. Object reads either.
type Row struct {
	// Objects is the tuple by archive name when the row came from JSON, and
	// nil in a row the portal built: read rows through Object.
	Objects map[string]Object

	names []string // names[k] observed chain[k]; the plan's archives, shared
	chain []Object
}

// Object returns the object the named archive observed, and whether the row
// has one. An archive named twice in a plan answers with its last hop, as a
// map keyed by archive would.
func (r Row) Object(archive string) (Object, bool) {
	if r.chain == nil {
		o, ok := r.Objects[archive]
		return o, ok
	}
	for k := len(r.chain) - 1; k >= 0; k-- {
		if r.names[k] == archive {
			return r.chain[k], true
		}
	}
	return Object{}, false
}

// MarshalJSON implements json.Marshaler, so that a row encoded on its own
// (or in a plain []Row) carries its tuple whichever form holds it.
func (r Row) MarshalJSON() ([]byte, error) {
	return appendRow(make([]byte, 0, 16+160*len(r.chain)), r, false, &keyOrder{})
}

// Rows is a result's row set. It encodes itself to JSON in one append-style
// pass — byte for byte what encoding/json produces for a slice of
// struct{ Objects map[string]Object } — without reflecting over the rows.
type Rows []Row

// AppendJSON appends to buf exactly the bytes json.Marshal(rs) returns, HTML
// escaping of archive names included, and returns the extended buffer: the
// form a caller that assembles a response in its own buffer uses, so the row
// bytes are written once. Like encoding/json it refuses NaN and infinite
// coordinates with a *json.UnsupportedValueError.
func (rs Rows) AppendJSON(buf []byte) ([]byte, error) { return rs.appendJSON(buf, true) }

// MarshalJSON implements json.Marshaler over the same encoder. It leaves
// '<', '>' and '&' in archive names alone: the calling encoder escapes them
// when it compacts a Marshaler's output, or not, as it was configured.
func (rs Rows) MarshalJSON() ([]byte, error) {
	// About 150 bytes per object: six field names, two integers and four
	// shortest-round-trip floats.
	perRow := 16
	if len(rs) > 0 {
		perRow += 160 * max(len(rs[0].chain), len(rs[0].Objects))
	}
	return rs.appendJSON(make([]byte, 0, 2+len(rs)*perRow), false)
}

func (rs Rows) appendJSON(buf []byte, escapeHTML bool) ([]byte, error) {
	if rs == nil {
		return append(buf, "null"...), nil
	}
	var (
		err   error
		order keyOrder
	)
	buf = append(buf, '[')
	for i, r := range rs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = appendRow(buf, r, escapeHTML, &order); err != nil {
			return nil, err
		}
	}
	return append(buf, ']'), nil
}

// keyOrder is the order a view row's objects are encoded in — by archive
// name, as encoding/json orders map keys, a name the plan repeats standing
// for its last position — kept from row to row while the names stay the same
// slice, which over one result they do.
type keyOrder struct {
	names []string
	pos   []int
}

func (ko *keyOrder) of(names []string) []int {
	if len(names) == len(ko.names) && (len(names) == 0 || &names[0] == &ko.names[0]) {
		return ko.pos
	}
	ko.names, ko.pos = names, make([]int, 0, len(names))
	for k, name := range names {
		if !slices.Contains(names[k+1:], name) {
			ko.pos = append(ko.pos, k)
		}
	}
	slices.SortFunc(ko.pos, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	return ko.pos
}

func appendRow(buf []byte, r Row, escapeHTML bool, order *keyOrder) ([]byte, error) {
	if r.chain == nil && r.Objects == nil {
		return append(buf, `{"Objects":null}`...), nil
	}
	var err error
	buf = append(buf, `{"Objects":{`...)
	if r.chain != nil {
		for j, k := range order.of(r.names[:len(r.chain)]) {
			if buf, err = appendMember(buf, j, r.names[k], r.chain[k], escapeHTML); err != nil {
				return nil, err
			}
		}
		return append(buf, "}}"...), nil
	}
	var keysBuf [8]string
	keys := keysBuf[:0]
	for k := range r.Objects {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for j, k := range keys {
		if buf, err = appendMember(buf, j, k, r.Objects[k], escapeHTML); err != nil {
			return nil, err
		}
	}
	return append(buf, "}}"...), nil
}

// appendMember appends the j-th "archive":{object} member of a row.
func appendMember(buf []byte, j int, archive string, o Object, escapeHTML bool) ([]byte, error) {
	if j > 0 {
		buf = append(buf, ',')
	}
	buf = jsonenc.AppendString(buf, archive, escapeHTML)
	buf = append(buf, ':')
	return appendObject(buf, o)
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
		buf = jsonenc.AppendFloat(buf, f.v)
	}
	return append(buf, '}'), nil
}
