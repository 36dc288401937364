package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/geom"
	"repro/transformers"
)

// The ingest decoder: the bodies of POST /datasets and POST
// /datasets/{name}/append are one JSON object whose "elements" member is, at
// some 140 bytes of text per element, nearly all of it. decodeIngest streams
// that member straight into []transformers.Element — no whole-body buffer,
// box validity checked as each element lands — and hands every other member,
// verbatim, to encoding/json, so name / generate / timeout_ms decode exactly
// as the other endpoints' bodies do.
//
// A long "elements" array decodes on every core (blocks): the request
// goroutine frames it into blocks of maxIngestToken bytes cut after an
// element's closing "]}}," and GOMAXPROCS workers run the canonical-element
// recogniser over them. What a worker verifies — every element of its block
// canonical, valid and followed by its comma, and every block before it the
// same — is exactly what the serial decoder would have read there; at the
// first element that is not, the serial decoder takes over with that
// element's index and offset, so results and errors are the serial path's.
// The output is the array an upload keeps: chunks of ingestChunk elements,
// which the framer fills with each verified block's elements in stream order
// and the serial path fills on from there, and which the index build reorders
// where they lie (str.SplitChunked). Beside that output, decoding holds the
// read buffer, at most one member's bytes and 2×GOMAXPROCS+1 blocks in flight,
// each with the elements a worker decoded from it, however long the body is;
// a body whose rest fits in one block starts no worker.
//
// Within "elements" the grammar is JSON's and the wire format is exact:
//
//	{"id": <uint64>, "box": {"lo": [x,y,z], "hi": [x,y,z]}}
//
// An element comes one of two ways. The recogniser (canonical) takes the
// spelling every client in the tree writes, in one pass over the read buffer;
// an element it declines — any other spelling, or one that touches the end of
// what is read — is captured whole and read by encoding/json (element), over
// 30 times slower, which no client pays. Either way members may come in any
// order, repeat (the last one wins, a repeated box merging, as in
// encoding/json) or be absent (zero), and null stands for "absent" wherever
// encoding/json takes it so. Refused, where encoding/json on the former wire
// structs was lenient:
//   - a lo/hi that is not exactly three numbers (it zero-padded short
//     triples and dropped a fourth);
//   - bytes other than whitespace after the object (it never looked);
//   - "elements", "id", "box", "lo" or "hi" spelled in another case or with
//     escapes (it matched field names case-insensitively);
//   - an invalid box at the position it is read, even if a repeated
//     "elements" member would have overwritten it later;
//   - a key, a declined element or a whole non-"elements" member longer than
//     maxIngestToken, which is what bounds the decoder's memory.

// maxIngestToken is the size of the decoder's read buffer, of the longest
// text it hands to encoding/json at once — a declined element, a
// non-"elements" member with its key — and of the parallel path's blocks.
const maxIngestToken = 64 << 10

// ingestErrKind says which rule a refused body broke. The handler maps all
// of them to 400; the differential fuzz test needs to tell the documented
// tightenings from errors encoding/json must report too.
type ingestErrKind int

const (
	ingestSyntax       ingestErrKind = iota // not JSON, or not the type the wire format has there
	ingestUnknownField                      // a member the wire format does not have
	ingestTriple                            // lo/hi is not exactly three numbers
	ingestTrailing                          // non-whitespace after the object
	ingestInvalidBox                        // lo > hi in some dimension
	ingestTooLong                           // a captured key, element or member over maxIngestToken
)

type ingestError struct {
	kind ingestErrKind
	msg  string
}

func (e *ingestError) Error() string { return e.msg }

func ingestErrorf(kind ingestErrKind, format string, args ...any) error {
	return &ingestError{kind: kind, msg: fmt.Sprintf(format, args...)}
}

type ingestDecoder struct {
	r        io.Reader
	buf      []byte // fixed; buf[pos:end] is read and not yet consumed
	pos, end int
	base     int64  // stream offset of buf[0], for error messages
	member   []byte // a declined element or a non-"elements" member, as handed to encoding/json

	// block is the size in bytes of the blocks the parallel path cuts an
	// "elements" array into, at most len(buf); zero decodes every element on
	// the calling goroutine.
	block int

	// chunks hold the output so far, in element order: element i is element
	// i&(ingestChunk-1) of chunks[i>>ingestShift], and every chunk but the
	// last is full. count is how many elements the last "elements" member
	// holds.
	chunks [][]transformers.Element
	count  int
	// The first mbbCount elements are the workers', bounded by mbb, which
	// they took as they decoded; the serial path's follow them.
	mbb      transformers.Box
	mbbCount int
}

// decodeIngest reads one ingest body from r. The "elements" member is
// returned as a batch; every other member is decoded into meta (a pointer to
// a struct with json tags) by encoding/json with unknown fields disallowed. A
// *ingestError reports a body the wire format refuses; any other error is
// r's own.
func decodeIngest(r io.Reader, meta any) (batch, error) {
	d := &ingestDecoder{r: r, buf: make([]byte, maxIngestToken), block: maxIngestToken}
	return d.decodeBatch(meta)
}

func (d *ingestDecoder) decodeBatch(meta any) (batch, error) {
	if err := d.body(meta); err != nil {
		return batch{}, err
	}
	switch c, err := d.skipSpace(); {
	case err == io.EOF:
		return d.batch(), nil
	case err != nil:
		return batch{}, err
	default:
		return batch{}, d.errorf(ingestTrailing, "invalid character %q after top-level value", c)
	}
}

// batch returns the first d.count decoded elements, in the chunks they were
// decoded into, and their bounds: the workers' for the blocks, one pass over
// the rest. A last chunk with room to spare is copied to its length, so that
// what the batch keeps alive is its elements.
func (d *ingestDecoder) batch() batch {
	k := (d.count + ingestChunk - 1) >> ingestShift
	chunks := d.chunks[:k]
	if k > 0 {
		if last := chunks[k-1][:d.count-(k-1)<<ingestShift]; len(last) < cap(last) {
			chunks[k-1] = slices.Clone(last)
		}
	}
	elems := geom.NewChunked(chunks, ingestShift)
	mbb := transformers.Box(geom.EmptyBox())
	if d.mbbCount > 0 {
		mbb = d.mbb
	}
	return batch{elems: elems, mbb: mbb.Cover(elems.MBB(min(d.mbbCount, d.count), d.count))}
}

func (d *ingestDecoder) errorf(kind ingestErrKind, format string, args ...any) error {
	return ingestErrorf(kind, format+" (offset %d)", append(args, d.base+int64(d.pos))...)
}

// fill reads more input into the buffer, whose bytes are all consumed. It
// returns io.EOF only with nothing read.
func (d *ingestDecoder) fill() error {
	d.base += int64(d.end)
	d.pos, d.end = 0, 0
	for {
		n, err := d.r.Read(d.buf)
		d.end = n
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// peek returns the next byte without consuming it.
func (d *ingestDecoder) peek() (byte, error) {
	if d.pos == d.end {
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
	return d.buf[d.pos], nil
}

// skipSpace consumes JSON whitespace and returns the byte after it,
// unconsumed.
func (d *ingestDecoder) skipSpace() (byte, error) {
	for {
		for d.pos < d.end {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\r', '\n':
				d.pos++
			default:
				return c, nil
			}
		}
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
}

// unexpectedEOF turns the reader's clean end into the decoder's error for a
// body that stops mid-value.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return ingestErrorf(ingestSyntax, "unexpected end of JSON input")
	}
	return err
}

// token skips whitespace and returns the next byte, unconsumed; the body
// ending here is an error.
func (d *ingestDecoder) token() (byte, error) {
	c, err := d.skipSpace()
	return c, unexpectedEOF(err)
}

// null consumes the literal null, whose first byte the caller has seen.
func (d *ingestDecoder) null() error {
	for _, want := range []byte("null") {
		c, err := d.peek()
		if err != nil {
			return unexpectedEOF(err)
		}
		if c != want {
			return d.errorf(ingestSyntax, "invalid character %q in literal null", c)
		}
		d.pos++
	}
	return nil
}

// numberLit is a number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and what one pass over it
// learns: when fits is set the literal is exactly ±mant × 10^exp, its digits
// (at most 19, not counting a lone integer 0) folded into mant without
// overflow.
type numberLit struct {
	text []byte
	mant uint64
	exp  int
	neg  bool
	fits bool
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// maxMantDigits is how many decimal digits always fit in a uint64.
const maxMantDigits = 19

// scanNumber reads the longest number of the JSON grammar s starts with —
// grammar and mantissa in one visit per byte — and reports where it stopped.
// It is not ok when s does not start with a number, or stops inside one (after
// a sign, a point or an exponent mark). What follows s[:n] is the caller's to
// judge: more of s, or more input, may belong to the same token.
func scanNumber(s []byte) (lit numberLit, n int, ok bool) {
	i := 0
	if i < len(s) && s[i] == '-' {
		lit.neg = true
		i++
	}
	if i == len(s) {
		return lit, i, false
	}
	// Every digit is folded into mant, which wraps harmlessly once there are
	// more than maxMantDigits of them.
	var mant uint64
	digits := 0
	if s[i] == '0' {
		i++
	} else {
		start := i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(s[i]-'0')
		}
		if digits = i - start; digits == 0 {
			return lit, i, false
		}
	}
	if i < len(s) && s[i] == '.' {
		i++
		start := i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(s[i]-'0')
		}
		if i == start {
			return lit, i, false
		}
		lit.exp = start - i
		digits += i - start
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		expNeg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			expNeg = s[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			if e < 1000 {
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == start {
			return lit, i, false
		}
		if expNeg {
			e = -e
		}
		lit.exp += e
	}
	lit.text, lit.mant, lit.fits = s[:i], mant, digits <= maxMantDigits
	return lit, i, true
}

// float converts the literal exactly as strconv.ParseFloat does: by float64
// arithmetic where that is exact (strconv's own exact case), by one 128-bit
// division for the other fractions of up to 19 digits — every shortest-form
// coordinate of 16 digits or more — and by ParseFloat itself for what is left:
// exponents out of these ranges and longer mantissas.
func (lit numberLit) float() (float64, error) {
	var f float64
	switch {
	case lit.fits && lit.mant < 1<<53 && -len(pow10) < lit.exp && lit.exp < len(pow10):
		f = float64(lit.mant)
		if lit.exp < 0 {
			f /= pow10[-lit.exp]
		} else {
			f *= pow10[lit.exp]
		}
	case lit.fits && -maxMantDigits <= lit.exp && lit.exp <= 0:
		f = divPow10(lit.mant, -lit.exp)
	default:
		return strconv.ParseFloat(string(lit.text), 64)
	}
	if lit.neg {
		f = -f
	}
	return f, nil
}

// divPow10 returns the float64 nearest m / 10^k, ties to even, for m >= 1 and
// 0 <= k <= 19: exact for every such input. Both operands are shifted until
// their top bits are set, so that the one division bits.Div64 does yields a
// quotient of 63 or 64 significant bits — a float64's 53, a rounding bit and
// more — and a remainder that says whether anything lies below them.
func divPow10(m uint64, k int) float64 {
	den := uint64(pow10[k]) // exact: 10^19 < 2^64
	lm, ld := bits.LeadingZeros64(m), bits.LeadingZeros64(den)
	m <<= lm
	den <<= ld
	// m/den lies in (1/2, 2); q = floor(m/den × 2^63), and m>>1 < 2^63 <= den
	// is what Div64 requires.
	q, rem := bits.Div64(m>>1, m<<63, den)
	e := ld - lm - 63 // m₀/10^k = (q + rem/den) × 2^e
	if q>>63 == 0 {
		// The bit shifted in is not the quotient's next one; rem != 0 stands
		// for it below, and rounding compares against an even half.
		q <<= 1
		e--
	}
	const roundBits = 11
	mant, low := q>>roundBits, q&(1<<roundBits-1)
	if half := uint64(1) << (roundBits - 1); low > half || low == half && (rem != 0 || mant&1 == 1) {
		mant++ // to 2^53 at most, which the sum below carries into the exponent
	}
	// mant × 2^(e+roundBits) with mant in [2^52, 2^53]: its top bit is the
	// implicit one, and adds the 1 the biased exponent is short of.
	return math.Float64frombits(uint64(e+roundBits+1074)<<52 + mant)
}

// body decodes the top-level value: the request object, or null, which
// encoding/json takes for an empty one. Each member's key is captured as it
// is written, escapes unresolved: "elements" needs none, so a key that has
// one is another member's, for encoding/json to resolve.
func (d *ingestDecoder) body(meta any) error {
	c, err := d.skipSpace()
	switch {
	case err == io.EOF:
		return ingestErrorf(ingestSyntax, "EOF")
	case err != nil:
		return err
	case c == 'n':
		return d.null()
	case c != '{':
		return d.errorf(ingestSyntax, "invalid character %q: the request body must be a JSON object", c)
	}
	d.pos++
	if c, err = d.token(); err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		if c != '"' {
			return d.errorf(ingestSyntax, "invalid character %q looking for beginning of object key string", c)
		}
		d.member = append(d.member[:0], '{')
		if err := d.captureValue(); err != nil {
			return err
		}
		if c, err = d.token(); err != nil {
			return err
		}
		if c != ':' {
			return d.errorf(ingestSyntax, "invalid character %q after object key", c)
		}
		d.pos++
		if string(d.member) == `{"elements"` {
			err = d.elements()
		} else {
			err = d.metaMember(meta)
		}
		if err != nil {
			return err
		}
		if c, err = d.token(); err != nil {
			return err
		}
		switch c {
		case '}':
			d.pos++
			return nil
		case ',':
			d.pos++
			if c, err = d.token(); err != nil {
				return err
			}
		default:
			return d.errorf(ingestSyntax, "invalid character %q after object key:value pair", c)
		}
	}
}

// metaMember captures the value that comes next behind the key d.member
// holds and decodes {key: value} into meta with encoding/json. Successive
// members land in the same meta, so repeats merge the way one Decode of the
// whole body merged them.
func (d *ingestDecoder) metaMember(meta any) error {
	d.member = append(d.member, ':')
	if err := d.captureValue(); err != nil {
		return err
	}
	d.member = append(d.member, '}')
	return d.decodeMember(meta)
}

// decodeMember decodes d.member, whole, into v with encoding/json, unknown
// fields disallowed.
func (d *ingestDecoder) decodeMember(v any) error {
	dec := json.NewDecoder(bytes.NewReader(d.member))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var ie *ingestError
	switch {
	case errors.As(err, &ie): // from one of the wire types' UnmarshalJSON
		return ie
	case err != nil:
		// encoding/json has no error type for an unknown field, only this
		// message.
		kind := ingestSyntax
		if strings.HasPrefix(err.Error(), "json: unknown field ") {
			kind = ingestUnknownField
		}
		return ingestErrorf(kind, "%v", err)
	case dec.InputOffset() != int64(len(d.member)):
		return d.errorf(ingestSyntax, "invalid member %s", d.member)
	}
	return nil
}

// captureValue appends the next value's bytes to d.member. It finds where
// the value ends — strings by their quotes, containers by bracket depth,
// scalars by the delimiter after them — and leaves judging what is inside to
// encoding/json, which reads the captured bytes next.
func (d *ingestDecoder) captureValue() error {
	c, err := d.token()
	if err != nil {
		return err
	}
	take := func() (byte, error) {
		c, err := d.peek()
		if err != nil {
			return 0, unexpectedEOF(err)
		}
		if len(d.member) >= maxIngestToken {
			return 0, d.errorf(ingestTooLong, "member longer than %d bytes", maxIngestToken)
		}
		d.member = append(d.member, c)
		d.pos++
		return c, nil
	}
	str := func() error { // opening quote taken
		for {
			switch c, err := take(); {
			case err != nil:
				return err
			case c == '\\':
				if _, err := take(); err != nil {
					return err
				}
			case c == '"':
				return nil
			}
		}
	}
	switch c {
	case '"':
		if _, err := take(); err != nil {
			return err
		}
		return str()
	case '{', '[':
		for depth := 0; ; {
			c, err := take()
			if err != nil {
				return err
			}
			switch c {
			case '"':
				if err := str(); err != nil {
					return err
				}
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return nil
				}
			}
		}
	default:
		for {
			c, err := d.peek()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			switch c {
			case ',', '}', ']', ' ', '\t', '\r', '\n':
				return nil
			}
			if _, err := take(); err != nil {
				return err
			}
		}
	}
}

// ingestChunk is how many elements one chunk of the output holds (448 KB),
// 1<<ingestShift. The decoder cannot know the element count before the array
// ends and takes no hint from the client, so it fills chunks that never move
// once full, and the index is built over them as one array (geom.Chunked):
// nothing is copied after the decode, where growing one slice by append
// allocates it nearly six times over and keeps up to a quarter spare.
const (
	ingestShift = 13
	ingestChunk = 1 << ingestShift
)

// room returns chunk k, appended if it is the next, with capacity for one
// more element, which it does not have only when it holds fewer than
// ingestChunk. The first chunk doubles, from 64 elements, so that a small
// body takes no whole chunk; a later one, which only a body longer than a
// chunk reaches, takes its ingestChunk at once.
func (d *ingestDecoder) room(k int) []transformers.Element {
	if k == len(d.chunks) {
		d.chunks = append(d.chunks, nil)
	}
	c := d.chunks[k]
	if len(c) == cap(c) {
		size := ingestChunk
		if k == 0 {
			size = min(max(2*cap(c), 64), ingestChunk)
		}
		c = append(make([]transformers.Element, 0, size), c...)
		d.chunks[k] = c
	}
	return c
}

// slot returns the place of element i, which is zero unless an earlier
// "elements" member of the same body decoded an element there. Each member
// asks for 0, 1, 2 and on.
func (d *ingestDecoder) slot(i int) *transformers.Element {
	k, off := i>>ingestShift, i&(ingestChunk-1)
	if k < len(d.chunks) && off < len(d.chunks[k]) {
		return &d.chunks[k][off]
	}
	d.chunks[k] = append(d.room(k), transformers.Element{})
	return &d.chunks[k][off]
}

// put appends elems to the output, which holds exactly n elements: the
// framer's copy of a verified block.
func (d *ingestDecoder) put(n int, elems []transformers.Element) {
	for len(elems) > 0 {
		k := n >> ingestShift
		c := d.room(k)
		m := min(len(elems), ingestChunk-len(c), cap(c)-len(c))
		d.chunks[k] = append(c, elems[:m]...)
		elems, n = elems[m:], n+m
	}
}

// elements decodes the "elements" array into the chunks and sets d.count.
// Like encoding/json, a repeated member decodes over the elements the
// previous one left and truncates to its own length, and null or an empty
// array drop them.
func (d *ingestDecoder) elements() error {
	d.mbbCount = 0
	c, err := d.token()
	if err != nil {
		return err
	}
	if c == 'n' {
		d.chunks, d.count = nil, 0
		return d.null()
	}
	if c != '[' {
		return d.errorf(ingestSyntax, "invalid character %q: elements must be an array", c)
	}
	d.pos++
	if c, err = d.token(); err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		d.chunks, d.count = nil, 0
		return nil
	}
	i := 0
	if d.block > 0 && len(d.chunks) == 0 {
		i = d.blocks()
	}
	for ; ; i++ {
		e := d.slot(i)
		// The recogniser reads only what is in the buffer, which is empty
		// where the serial path takes over from the blocks.
		if _, err := d.token(); err != nil {
			return err
		}
		if !d.canonical(e) {
			if err := d.element(e, i); err != nil {
				return err
			}
		}
		if !e.Box.Valid() {
			return ingestErrorf(ingestInvalidBox, "element %d: invalid box (lo > hi)", i)
		}
		if c, err = d.token(); err != nil {
			return err
		}
		switch c {
		case ']':
			d.pos++
			d.count = i + 1
			return nil
		case ',':
			d.pos++
		default:
			return d.errorf(ingestSyntax, "invalid character %q after element %d", c, i)
		}
	}
}

// element decodes over *e an element the recogniser declined: captured whole
// and read by encoding/json into a wireElement that starts from *e, so that
// an absent or null member leaves what was there and a repeated box merges,
// as on the former wire structs. encoding/json matches member names by
// folding case and resolving escapes, which the wire format does not; once
// the capture has decoded, its only strings are member names (wireID and
// wireTriple take no other value), so each must be one of the four, spelled
// exactly.
func (d *ingestDecoder) element(e *transformers.Element, i int) error {
	d.member = d.member[:0]
	if err := d.captureValue(); err != nil {
		return err
	}
	w := wireElement{ID: wireID(e.ID)}
	w.Box.Lo, w.Box.Hi = wireTriple{"lo", e.Box.Lo}, wireTriple{"hi", e.Box.Hi}
	err := d.decodeMember(&w)
	for s := d.member; err == nil; {
		open := bytes.IndexByte(s, '"')
		if open < 0 {
			break
		}
		s = s[open+1:]
		n := 0
		for ; s[n] != '"'; n++ {
			if s[n] == '\\' {
				n++
			}
		}
		switch name := s[:n]; string(name) {
		case "id", "box", "lo", "hi":
		default:
			err = ingestErrorf(ingestUnknownField, "json: unknown field %q", name)
		}
		s = s[n+1:]
	}
	if err != nil {
		ie := err.(*ingestError)
		return ingestErrorf(ie.kind, "element %d: %s", i, ie.msg)
	}
	*e = transformers.Element{ID: uint64(w.ID), Box: transformers.Box{Lo: w.Box.Lo.p, Hi: w.Box.Hi.p}}
	return nil
}

// wireElement is what encoding/json decodes a declined element into. Its id
// and triples check every occurrence of their member as it lands, so a
// repeated member is checked each time, as the former wire structs' were.
type wireElement struct {
	ID  wireID `json:"id"`
	Box struct {
		Lo wireTriple `json:"lo"`
		Hi wireTriple `json:"hi"`
	} `json:"box"`
}

// wireID is an id: an integer in [0, 2^64). null leaves it as it was.
type wireID uint64

func (id *wireID) UnmarshalJSON(text []byte) error {
	if string(text) == "null" {
		return nil
	}
	v, n, ok := idDigits(text)
	if !ok || n != len(text) {
		return ingestErrorf(ingestSyntax, "id %s is not an integer in [0, 2^64)", text)
	}
	*id = wireID(v)
	return nil
}

// wireTriple is lo or hi, named for its errors: exactly three numbers, null
// refused.
type wireTriple struct {
	name string
	p    transformers.Point
}

func (t *wireTriple) UnmarshalJSON(text []byte) error {
	var xs []*float64
	err := json.Unmarshal(text, &xs)
	// Into *float64, only a number out of float64's range is the wrong type.
	if te := (*json.UnmarshalTypeError)(nil); errors.As(err, &te) && strings.HasPrefix(te.Value, "number ") {
		return ingestErrorf(ingestSyntax, "%s: %s out of range", t.name, te.Value)
	}
	if err != nil || len(xs) != len(t.p) || slices.Contains(xs, nil) {
		return ingestErrorf(ingestTriple, "%s must be exactly three numbers", t.name)
	}
	for dim, x := range xs {
		t.p[dim] = *x
	}
	return nil
}

// elementEnd ends every canonical element and the comma after it: where the
// framer cuts blocks.
var elementEnd = []byte("]}},")

// ingestBlock is one block of an "elements" array as the framer cut it —
// text, which ends in elementEnd — and what a worker made of it.
type ingestBlock struct {
	buf  []byte // the pooled buffer the text is the head of
	text []byte
	off  int64 // stream offset of text[0]
	// Set by the worker before it signals done: the elements it verified,
	// their bounds, and how many bytes of text they and their commas span —
	// all of it when the block verified whole. elems is the block's own,
	// reused by its next decode once the framer has copied it out.
	elems []transformers.Element
	mbb   transformers.Box
	used  int
	done  chan struct{} // one signal per decode; the block is reused
}

// decode runs the recogniser over the block: every element must be
// canonical, valid and followed by a comma, and the first that is not ends
// the block's verified prefix.
func (b *ingestBlock) decode() {
	r := ingestDecoder{buf: b.text, end: len(b.text)}
	b.elems = b.elems[:0]
	for r.pos < r.end {
		b.elems = append(b.elems, transformers.Element{})
		e, at := &b.elems[len(b.elems)-1], r.pos
		if !r.canonical(e) || !e.Box.Valid() || r.pos == r.end || r.buf[r.pos] != ',' {
			b.elems, r.pos = b.elems[:len(b.elems)-1], at
			break
		}
		r.pos++
	}
	b.mbb, b.used = geom.MBBOf(b.elems), r.pos
}

// failedReader answers every read with the error its reader failed with.
type failedReader struct{ err error }

func (r failedReader) Read([]byte) (int, error) { return 0, r.err }

// blocks decodes the "elements" array from its first element, at the read
// position, on GOMAXPROCS workers, and returns how many elements they
// verified: the serial loop decodes on from there, d reading the rest of the
// body from the first byte the workers did not verify. It decodes nothing when
// the rest of the body fits in one block, and starts no goroutine then.
//
// The calling goroutine frames: it reads the body into pooled block buffers
// and cuts each after the last elementEnd it holds, the bytes after the cut
// starting the next block. Workers verify the blocks (ingestBlock.decode),
// and the framer copies their elements into the output in stream order while
// every block verifies whole. The first block starts at an element, and a block that
// verified whole ends after an element and its comma, so the next starts at
// an element too: the cuts are proven by induction, however the framer
// placed them — a cut inside a key only makes a worker decline. At the first
// block that does not verify whole, or when the body ends, or a full block
// holds no elementEnd, the serial loop takes over: at the element the worker
// declined, with that element's index and stream offset, reading that
// block's bytes, the blocks cut after it, the bytes not yet cut and the rest
// of the body, in order, and a read error where the body failed. So every
// element, error and offset is the serial decoder's by construction. The
// pool bounds the blocks in flight, and so what decoding holds beyond its
// output, at 2×GOMAXPROCS+1 buffers of d.block bytes.
func (d *ingestDecoder) blocks() int {
	if d.pos > 0 {
		copy(d.buf, d.buf[d.pos:d.end])
		d.end -= d.pos
		d.base += int64(d.pos)
		d.pos = 0
	}
	for d.end < d.block {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.r = failedReader{err}
			return 0
		}
	}
	workers := runtime.GOMAXPROCS(0)
	pool := make([]*ingestBlock, 0, 2*workers+1) // blocks free to fill
	allocated := 0
	work := make(chan *ingestBlock, cap(pool))
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				b.decode()
				b.done <- struct{}{}
			}
		}()
	}

	var (
		pending  = bytes.Clone(d.buf[:d.end]) // read, not yet in a block
		carry    []byte                       // the bytes after the last cut
		off      = d.base                     // stream offset of carry[0], or pending[0]
		queue    []*ingestBlock               // dispatched, not yet taken
		verified int
		readErr  error
	)
	// take waits for the oldest block out, keeps what it verified and reports
	// whether that was all of it: only then is its buffer free again, and the
	// next block trusted.
	take := func() bool {
		b := queue[0]
		<-b.done
		d.put(verified, b.elems)
		verified += len(b.elems)
		d.mbb = d.mbb.Cover(b.mbb)
		if b.used < len(b.text) {
			return false
		}
		queue = queue[1:]
		pool = append(pool, b)
		return true
	}
	d.mbb = geom.EmptyBox()
	trusted := true
	for trusted {
		var b *ingestBlock
		switch {
		case len(pool) > 0:
			b, pool = pool[len(pool)-1], pool[:len(pool)-1]
		case allocated < cap(pool):
			// Room for the elements of a block of canonical ones at
			// some 140 bytes each; a block of shorter ones grows it once.
			b = &ingestBlock{buf: make([]byte, d.block), elems: make([]transformers.Element, 0, d.block/128), done: make(chan struct{}, 1)}
			allocated++
		default:
			if trusted = take(); !trusted {
				continue
			}
			b, pool = pool[len(pool)-1], pool[:len(pool)-1]
		}
		n := copy(b.buf, carry)
		m := copy(b.buf[n:], pending)
		pending, n = pending[m:], n+m
		for n < len(b.buf) && readErr == nil {
			m, readErr = d.r.Read(b.buf[n:])
			n += m
		}
		cut := bytes.LastIndex(b.buf[:n], elementEnd) + len(elementEnd)
		if n < len(b.buf) || cut < len(elementEnd) {
			carry = b.buf[:n] // the body ended, or no element ends in a full block
			break
		}
		b.text, b.off = b.buf[:cut], off
		queue = append(queue, b)
		work <- b
		carry, off = b.buf[cut:n], off+int64(cut)
	}
	for trusted && len(queue) > 0 {
		trusted = take()
	}
	close(work)
	wg.Wait()

	rest := make([]io.Reader, 0, len(queue)+3)
	resume := off
	for i, b := range queue {
		text := b.text
		if i == 0 { // the block a worker declined in
			text, resume = text[b.used:], b.off+int64(b.used)
		}
		rest = append(rest, bytes.NewReader(text))
	}
	rest = append(rest, bytes.NewReader(carry), bytes.NewReader(pending))
	if readErr != nil {
		rest = append(rest, failedReader{readErr})
	} else {
		rest = append(rest, d.r)
	}
	d.r = io.MultiReader(rest...)
	d.pos, d.end, d.base = 0, 0, resume
	d.mbbCount = verified
	return verified
}

// canonical decodes the element at the read position over *e if it is
// spelled the one way every client in the tree writes it, which is what
// encoding/json makes of the wire structs:
//
//	{"id":N,"box":{"lo":[x,y,z],"hi":[x,y,z]}}
//
// that member order, no whitespace, N without a leading zero, all of it
// already in the buffer. Anything else — another byte anywhere, a token that
// touches the end of what is read, a number float refuses — it declines,
// having consumed and stored nothing, and element reads the same bytes from
// the first: the recogniser adds no spelling to the wire format and words no
// error. Where it accepts, it stores what element would have (every member is
// present, so nothing of a previous occupant of *e survives either way).
func (d *ingestDecoder) canonical(e *transformers.Element) bool {
	const open, lo, hi, end = `{"id":`, `,"box":{"lo":[`, `],"hi":[`, `]}}`
	s := d.buf[d.pos:d.end]
	if !hasPrefixAt(s, 0, open) {
		return false
	}
	i := len(open)
	id, n, ok := idDigits(s[i:])
	if !ok || n == 0 || s[i] == '0' && n > 1 {
		return false
	}
	i += n
	var coords [6]float64 // lo, then hi
	for c, before := range [...]string{lo, ",", ",", hi, ",", ","} {
		if !hasPrefixAt(s, i, before) {
			return false
		}
		i += len(before)
		lit, n, ok := scanNumber(s[i:])
		if !ok {
			return false
		}
		f, err := lit.float()
		if err != nil {
			return false
		}
		coords[c] = f
		i += n
	}
	if !hasPrefixAt(s, i, end) {
		return false
	}
	*e = transformers.Element{ID: id, Box: transformers.Box{Lo: transformers.Point(coords[:3]), Hi: transformers.Point(coords[3:])}}
	d.pos += i + len(end)
	return true
}

// hasPrefixAt reports whether s[i:] starts with lit.
func hasPrefixAt(s []byte, i int, lit string) bool {
	return len(s)-i >= len(lit) && string(s[i:i+len(lit)]) == lit
}

// idDigits folds the decimal digits s starts with into an id and reports how
// many they are; it is not ok when they pass 2^64-1.
func idDigits(s []byte) (id uint64, n int, ok bool) {
	for ; n < len(s) && s[n]-'0' <= 9; n++ {
		digit := uint64(s[n] - '0')
		if id > (1<<64-1-digit)/10 {
			return 0, n, false
		}
		id = id*10 + digit
	}
	return id, n, true
}
