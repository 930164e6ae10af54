package federation

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"liferaft/internal/jsonenc"
	"liferaft/internal/xmatch"
)

// Row is one result tuple: the object observed by each archive. A row the
// portal built is a 24-byte view — tuple t of the last hop's input and the
// last hop's pair k, both held once by the result's row set — and costs no
// allocation of its own; a row decoded from JSON holds its tuple in Objects.
// Object reads either.
type Row struct {
	// Objects is the tuple by archive name when the row came from JSON, and
	// nil in a row the portal built: read rows through Object.
	Objects map[string]Object

	set  *rowSet // nil in a row decoded from JSON
	t, k int32   // set.chains' tuple t, extended by set.pairs[k].Local
}

// rowSet is what the rows of one result view: the tuples the last hop
// extended — flat chains of width objects, one per archive before it in plan
// order — and the last hop's pairs, whose Local objects end the rows.
type rowSet struct {
	names  []string // the plan's archives: names[j] observed member j, names[width] the pair's Local
	order  []int    // member positions by archive name, as encoding/json orders map keys; a repeated name at its last position
	width  int
	chains []Object
	pairs  []xmatch.Pair
}

func newRowSet(names []string, chains []Object, width int, pairs []xmatch.Pair) *rowSet {
	s := &rowSet{names: names, order: make([]int, 0, len(names)), width: width, chains: chains, pairs: pairs}
	for j, name := range names {
		if !slices.Contains(names[j+1:], name) {
			s.order = append(s.order, j)
		}
	}
	slices.SortFunc(s.order, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	return s
}

// member returns the object the j-th archive of the plan observed in a row
// the portal built.
func (r Row) member(j int) Object {
	if j == r.set.width {
		return fromCatalog(r.set.pairs[r.k].Local)
	}
	return r.set.chains[int(r.t)*r.set.width+j]
}

// members returns how many archives the row has an object of.
func (r Row) members() int {
	if r.set != nil {
		return r.set.width + 1
	}
	return len(r.Objects)
}

// Object returns the object the named archive observed, and whether the row
// has one. An archive named twice in a plan answers with its last hop, as a
// map keyed by archive would.
func (r Row) Object(archive string) (Object, bool) {
	if r.set == nil {
		o, ok := r.Objects[archive]
		return o, ok
	}
	for j := r.set.width; j >= 0; j-- {
		if r.set.names[j] == archive {
			return r.member(j), true
		}
	}
	return Object{}, false
}

// MarshalJSON implements json.Marshaler, so that a row encoded on its own
// (or in a plain []Row) carries its tuple whichever form holds it.
func (r Row) MarshalJSON() ([]byte, error) {
	return appendRow(make([]byte, 0, 16+160*r.members()), r, false)
}

// Rows is a result's row set. The rows the portal builds all view the same
// chains and pairs, so the slice is the result's only per-row allocation,
// and a LIMIT is a prefix of it. It encodes itself to JSON in one
// append-style pass — byte for byte what encoding/json produces for a slice
// of struct{ Objects map[string]Object } — without reflecting over the rows.
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
		perRow += 160 * rs[0].members()
	}
	return rs.appendJSON(make([]byte, 0, 2+len(rs)*perRow), false)
}

func (rs Rows) appendJSON(buf []byte, escapeHTML bool) ([]byte, error) {
	if rs == nil {
		return append(buf, "null"...), nil
	}
	var err error
	buf = append(buf, '[')
	for i, r := range rs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = appendRow(buf, r, escapeHTML); err != nil {
			return nil, err
		}
	}
	return append(buf, ']'), nil
}

func appendRow(buf []byte, r Row, escapeHTML bool) ([]byte, error) {
	if r.set == nil && r.Objects == nil {
		return append(buf, `{"Objects":null}`...), nil
	}
	var err error
	buf = append(buf, `{"Objects":{`...)
	if r.set != nil {
		for i, j := range r.set.order {
			if buf, err = appendMember(buf, i, r.set.names[j], r.member(j), escapeHTML); err != nil {
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
