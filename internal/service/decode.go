package service

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// decodeMapRequest decodes a POST /v1/map body into req.
//
// A byte-level fast path handles the bodies clients actually send; any
// body outside its strict subset is decoded again, from scratch, by
// encoding/json with DisallowUnknownFields. The fast path accepts a body
// only when encoding/json would accept it and produce the identical
// request (FuzzDecodeMapRequest checks this), so acceptance, results and
// error messages are those of encoding/json by construction. The subset:
//
//   - one object whose keys are exactly the lowercase JSON names of
//     MapRequest's fields (and Edge's, inside edges), each at most once,
//     in any order;
//   - numbers in JSON grammar, parsed with strconv.ParseInt for integer
//     fields (so 1.0 or 1e3 for an int declines) and strconv.ParseFloat
//     for float fields (so an out-of-range 1e400 declines), except the
//     integer literal -0, which is left to the reference decoder;
//   - strings of printable ASCII with no escape;
//   - no null;
//   - nothing but whitespace after the object (encoding/json's Decoder
//     ignores trailing data, so such bodies fall back, not fail).
func decodeMapRequest(body []byte, req *MapRequest) error {
	if fastDecodeMapRequest(body, req) {
		return nil
	}
	*req = MapRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// fastDecodeMapRequest is the fast path of decodeMapRequest. It reports
// whether it accepted body, and leaves req untouched when it did not.
func fastDecodeMapRequest(body []byte, req *MapRequest) bool {
	p := reqParser{b: body}
	var r MapRequest
	if !p.next('{') {
		return false
	}
	for seen := uint32(0); ; {
		k, ok := p.field(mapRequestKeys, &seen)
		switch {
		case !ok:
			return false
		case k < 0:
			p.ws()
			if p.i != len(p.b) {
				return false
			}
			*req = r
			return true
		case k == 0:
			ok = p.str(&r.Workload)
		case k == 1:
			ok = p.int(&r.Procs)
		case k == 2:
			ok = p.int(&r.Iters)
		case k == 3:
			ok = p.edges(&r.Edges)
		case k == 4:
			ok = p.ints(&r.Constraint)
		case k == 5:
			ok = p.allowed(&r.Allowed)
		case k == 6:
			ok = p.str(&r.Algorithm)
		case k == 7:
			ok = p.int(&r.Kappa)
		case k == 8:
			ok = p.int64(&r.Seed)
		default:
			ok = p.int64(&r.DeadlineMillis)
		}
		if !ok {
			return false
		}
	}
}

// mapRequestKeys and edgeKeys index the JSON names of MapRequest's and
// Edge's fields as the fast path's switches expect; -1 is any other key.
func mapRequestKeys(key []byte) int {
	switch string(key) {
	case "workload":
		return 0
	case "procs":
		return 1
	case "iters":
		return 2
	case "edges":
		return 3
	case "constraint":
		return 4
	case "allowed":
		return 5
	case "algorithm":
		return 6
	case "kappa":
		return 7
	case "seed":
		return 8
	case "deadline_ms":
		return 9
	}
	return -1
}

func edgeKeys(key []byte) int {
	switch string(key) {
	case "src":
		return 0
	case "dst":
		return 1
	case "volume":
		return 2
	case "msgs":
		return 3
	}
	return -1
}

// reqParser is a cursor over a request body. Every method returns false
// to decline the body; the cursor is then meaningless.
type reqParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *reqParser) ws() {
	b, i := p.b, p.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	p.i = i
}

// next skips whitespace and consumes c if it is the next byte.
func (p *reqParser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// field moves to the next member of an object whose '{' the caller has
// consumed, leaving the cursor at its value, and returns the index of
// its key in keys; -1 means the object has closed. Every key must be
// one of keys, and seen, zero at the '{', refuses a key's second use.
func (p *reqParser) field(keys func([]byte) int, seen *uint32) (int, bool) {
	if p.next('}') {
		return -1, true
	}
	if *seen != 0 && !p.next(',') {
		return 0, false
	}
	p.ws()
	key, ok := p.strBytes()
	if !ok {
		return 0, false
	}
	k := keys(key)
	if k < 0 || *seen&(1<<k) != 0 || !p.next(':') {
		return 0, false
	}
	*seen |= 1 << k
	p.ws()
	return k, true
}

// elem moves to element n of an array whose '[' the caller has consumed,
// leaving the cursor at its value; more is false once the array has
// closed.
func (p *reqParser) elem(n int) (more, ok bool) {
	if p.next(']') {
		return false, true
	}
	if n > 0 && !p.next(',') {
		return false, false
	}
	p.ws()
	return true, true
}

// edges parses an edge list; [] gives an empty, non-nil slice, as
// encoding/json does.
func (p *reqParser) edges(dst *[]Edge) bool {
	if !p.next('[') {
		return false
	}
	// Every edge opens one '{', so counting them sizes the list up front.
	// The count is capped at one edge per 3 bytes ("{},"), so a body of
	// stray braces reserves no more than a valid list of its length.
	rest := p.b[p.i:]
	out := make([]Edge, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/3+1))
	for n := 0; ; n++ {
		more, ok := p.elem(n)
		if !ok || !more || !p.next('{') {
			*dst = out
			return ok && !more
		}
		var e Edge
		for seen := uint32(0); ; {
			k, ok := p.field(edgeKeys, &seen)
			switch {
			case !ok:
				return false
			case k == 0:
				ok = p.int(&e.Src)
			case k == 1:
				ok = p.int(&e.Dst)
			case k == 2:
				ok = p.float(&e.Volume)
			case k == 3:
				ok = p.float(&e.Msgs)
			}
			if !ok {
				return false
			}
			if k < 0 {
				break
			}
		}
		out = append(out, e)
	}
}

// ints parses an integer array; [] gives an empty, non-nil slice.
func (p *reqParser) ints(dst *[]int) bool {
	if !p.next('[') {
		return false
	}
	out := []int{}
	for n := 0; ; n++ {
		more, ok := p.elem(n)
		if !ok || !more {
			*dst = out
			return ok
		}
		var v int
		if !p.int(&v) {
			return false
		}
		out = append(out, v)
	}
}

// allowed parses the allowed-site sets, each an integer array.
func (p *reqParser) allowed(dst *[][]int) bool {
	if !p.next('[') {
		return false
	}
	out := [][]int{}
	for n := 0; ; n++ {
		more, ok := p.elem(n)
		if !ok || !more {
			*dst = out
			return ok
		}
		var set []int
		if !p.ints(&set) {
			return false
		}
		out = append(out, set)
	}
}

// strBytes parses a string of printable ASCII without escapes and
// returns its contents, which alias the body.
func (p *reqParser) strBytes() ([]byte, bool) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	start := p.i + 1
	for j := start; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			p.i = j + 1
			return p.b[start:j], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *reqParser) str(dst *string) bool {
	s, ok := p.strBytes()
	*dst = string(s)
	return ok
}

// number scans a number in JSON grammar and returns its literal and
// whether it has a fraction or an exponent.
func (p *reqParser) number() (lit []byte, frac bool, ok bool) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits(b, &i):
		return nil, false, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits(b, &i) {
			return nil, false, false
		}
		frac = true
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits(b, &i) {
			return nil, false, false
		}
		frac = true
	}
	lit, p.i = b[p.i:i], i
	return lit, frac, true
}

// digits advances *i over one or more decimal digits of b.
func digits(b []byte, i *int) bool {
	j := *i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	ok := j > *i
	*i = j
	return ok
}

// integer parses an integer literal that fits in bits.
func (p *reqParser) integer(bits int) (int64, bool) {
	lit, frac, ok := p.number()
	if !ok || frac || string(lit) == "-0" {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	return v, err == nil
}

func (p *reqParser) int(dst *int) bool {
	v, ok := p.integer(strconv.IntSize)
	*dst = int(v)
	return ok
}

func (p *reqParser) int64(dst *int64) bool {
	v, ok := p.integer(64)
	*dst = v
	return ok
}

func (p *reqParser) float(dst *float64) bool {
	lit, _, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*dst = v
	return err == nil
}
