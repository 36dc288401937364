package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/transformers"
)

// The ingest decoder: the bodies of POST /datasets and POST
// /datasets/{name}/append are one JSON object whose "elements" member is, at
// some 140 bytes of text per element, nearly all of it. decodeIngest streams
// that member straight into []transformers.Element — no whole-body buffer,
// no intermediate wire structs, box validity checked as each element lands —
// and hands every other member, verbatim, to encoding/json, so name /
// generate / timeout_ms decode exactly as the other endpoints' bodies do.
//
// Within "elements" the grammar is JSON's and the wire format is exact:
//
//	{"id": <uint64>, "box": {"lo": [x,y,z], "hi": [x,y,z]}}
//
// Members may come in any order, repeat (the last one wins, as in
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
//   - a number, a key or a whole non-"elements" member longer than
//     maxIngestToken, which is what bounds the decoder's memory.

// maxIngestToken is the decoder's read buffer size and so the longest number
// or key it can hold; a member handed to encoding/json is capped at the same
// size. With it, decoding allocates the output (see ingestChunk), this one
// buffer and at most one member's bytes, however long the body is.
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
	ingestTooLong                           // a token or member over maxIngestToken
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
	member   []byte // one non-"elements" member, as handed to encoding/json

	generalOnly bool // tests: never offer an element to canonical

	chunks [][]transformers.Element // the output so far, ingestChunk elements each
	count  int                      // how many of them the last "elements" member holds
}

// decodeIngest reads one ingest body from r. The "elements" member is
// returned; every other member is decoded into meta (a pointer to a struct
// with json tags) by encoding/json with unknown fields disallowed. A
// *ingestError reports a body the wire format refuses; any other error is
// r's own.
func decodeIngest(r io.Reader, meta any) ([]transformers.Element, error) {
	d := &ingestDecoder{r: r, buf: make([]byte, maxIngestToken)}
	return d.decode(meta)
}

func (d *ingestDecoder) decode(meta any) ([]transformers.Element, error) {
	elems, err := d.body(meta)
	if err != nil {
		return nil, err
	}
	switch c, err := d.skipSpace(); {
	case err == io.EOF:
		return elems, nil
	case err != nil:
		return nil, err
	default:
		return nil, d.errorf(ingestTrailing, "invalid character %q after top-level value", c)
	}
}

func (d *ingestDecoder) errorf(kind ingestErrKind, format string, args ...any) error {
	return ingestErrorf(kind, format+" (offset %d)", append(args, d.base+int64(d.pos))...)
}

// fill reads more input behind buf[keep:end], first sliding that tail — a
// token the caller is in the middle of — to the front of the buffer. It
// returns io.EOF only with nothing read.
func (d *ingestDecoder) fill(keep int) error {
	if keep > 0 {
		copy(d.buf, d.buf[keep:d.end])
		d.pos -= keep
		d.end -= keep
		d.base += int64(keep)
	}
	if d.end == len(d.buf) {
		return d.errorf(ingestTooLong, "number or key longer than %d bytes", len(d.buf))
	}
	for {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
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
		if err := d.fill(d.pos); err != nil {
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
		if err := d.fill(d.pos); err != nil {
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

// members iterates the members of a JSON object whose opening brace is the
// next byte: each is called with the member's key exactly as written between
// its quotes, positioned at the member's value. The key is only valid until
// each reads on.
func (d *ingestDecoder) members(each func(key []byte) error) error {
	d.pos++ // '{'
	c, err := d.token()
	if err != nil {
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
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := each(key); err != nil {
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

// key consumes a string, whose opening quote is the next byte, and the colon
// after it, and returns what stands between the quotes, escapes unresolved:
// the wire format's keys have none, so a key that needs resolving is not one
// of them. The key stays in the read buffer until the colon is found, so it
// is valid until the next read.
func (d *ingestDecoder) key() ([]byte, error) {
	start := d.pos
	i := start + 1
	more := func() error {
		err := d.fill(start)
		i -= start
		start = 0
		return unexpectedEOF(err)
	}
	for closed := false; !closed; {
		for ; i < d.end && !closed; i++ {
			switch c := d.buf[i]; {
			case c == '\\':
				i++ // the escaped byte, possibly past end: the loop resumes after it
			case c == '"':
				closed = true
			case c < ' ':
				d.pos = i
				return nil, d.errorf(ingestSyntax, "invalid character %q in string literal", c)
			}
		}
		if !closed {
			if err := more(); err != nil {
				return nil, err
			}
		}
	}
	keyLen := i - start - 2
	for {
		for ; i < d.end; i++ {
			switch c := d.buf[i]; c {
			case ' ', '\t', '\r', '\n':
			case ':':
				d.pos = i + 1
				return d.buf[start+1 : start+1+keyLen], nil
			default:
				d.pos = i
				return nil, d.errorf(ingestSyntax, "invalid character %q after object key", c)
			}
		}
		if err := more(); err != nil {
			return nil, err
		}
	}
}

// number consumes a JSON number and returns it, its text valid until the
// next read.
func (d *ingestDecoder) number() (numberLit, error) {
	lit, n, ok := scanNumber(d.buf[d.pos:d.end])
	if i := d.pos + n; ok && i < d.end && !numberByte(d.buf[i]) {
		d.pos = i
		return lit, nil
	}
	// The literal touches the end of what is read, or is malformed: find where
	// its run of number bytes ends, reading on, and scan that run again.
	start, i := d.pos, d.pos+n
scan:
	for {
		for ; i < d.end; i++ {
			if !numberByte(d.buf[i]) {
				break scan
			}
		}
		err := d.fill(start)
		i -= start
		start = 0
		if err == io.EOF {
			break
		}
		if err != nil {
			return numberLit{}, err
		}
	}
	text := d.buf[start:i]
	if lit, n, ok = scanNumber(text); ok && n == len(text) {
		d.pos = i
		return lit, nil
	}
	d.pos = start
	if i == start {
		c, err := d.peek()
		if err != nil {
			return numberLit{}, unexpectedEOF(err)
		}
		return numberLit{}, d.errorf(ingestSyntax, "invalid character %q looking for a number", c)
	}
	return numberLit{}, d.errorf(ingestSyntax, "invalid number literal %q", text)
}

// numberByte reports whether c can stand in a JSON number: a literal ends at
// the first byte that cannot, whatever the grammar made of the bytes before.
func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
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
// encoding/json takes for an empty one.
func (d *ingestDecoder) body(meta any) ([]transformers.Element, error) {
	c, err := d.skipSpace()
	switch {
	case err == io.EOF:
		return nil, ingestErrorf(ingestSyntax, "EOF")
	case err != nil:
		return nil, err
	case c == 'n':
		return nil, d.null()
	case c != '{':
		return nil, d.errorf(ingestSyntax, "invalid character %q: the request body must be a JSON object", c)
	}
	err = d.members(func(key []byte) error {
		if string(key) == "elements" {
			return d.elements()
		}
		return d.metaMember(key, meta)
	})
	if err != nil {
		return nil, err
	}
	return d.flatten(), nil
}

// metaMember captures the member whose value comes next and decodes
// {key: value} into meta with encoding/json. Successive members land in the
// same meta, so repeats merge the way one Decode of the whole body merged
// them.
func (d *ingestDecoder) metaMember(key []byte, meta any) error {
	d.member = append(d.member[:0], `{"`...)
	d.member = append(d.member, key...)
	d.member = append(d.member, `":`...)
	if err := d.captureValue(); err != nil {
		return err
	}
	d.member = append(d.member, '}')
	dec := json.NewDecoder(bytes.NewReader(d.member))
	dec.DisallowUnknownFields()
	if err := dec.Decode(meta); err != nil {
		// encoding/json has no error type for an unknown field, only this
		// message.
		kind := ingestSyntax
		if strings.HasPrefix(err.Error(), "json: unknown field ") {
			kind = ingestUnknownField
		}
		return ingestErrorf(kind, "%v", err)
	}
	if dec.InputOffset() != int64(len(d.member)) {
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
		if len(d.member) >= len(d.buf) {
			return 0, d.errorf(ingestTooLong, "member longer than %d bytes", len(d.buf))
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

// ingestChunk is how many elements one chunk of the output holds (448 KB).
// The decoder cannot know the element count before the array ends and takes
// no hint from the client, so it fills chunks that never move and copies
// them once into a slice of the exact length: twice the output allocated in
// total and nothing retained beyond it, where growing one slice by append
// allocates it nearly six times over and keeps up to a quarter spare.
const ingestChunk = 8192

// slot returns the place of element i, which is zero unless an earlier
// "elements" member of the same body decoded an element there.
func (d *ingestDecoder) slot(i int) *transformers.Element {
	ci, off := i/ingestChunk, i%ingestChunk
	if ci == len(d.chunks) {
		var chunk []transformers.Element
		if ci > 0 { // not a small upload: skip the growing
			chunk = make([]transformers.Element, 0, ingestChunk)
		}
		d.chunks = append(d.chunks, chunk)
	}
	if off == len(d.chunks[ci]) {
		d.chunks[ci] = append(d.chunks[ci], transformers.Element{})
	}
	return &d.chunks[ci][off]
}

// flatten returns the first d.count decoded elements as one slice.
func (d *ingestDecoder) flatten() []transformers.Element {
	if d.count <= ingestChunk {
		if len(d.chunks) == 0 {
			return nil
		}
		return d.chunks[0][:d.count]
	}
	out := make([]transformers.Element, 0, d.count)
	for _, chunk := range d.chunks {
		out = append(out, chunk[:min(len(chunk), d.count-len(out))]...)
	}
	return out
}

// elements decodes the "elements" array into the chunks and sets d.count.
// Like encoding/json, a repeated member decodes over the elements the
// previous one left and truncates to its own length, and null or an empty
// array drop them.
func (d *ingestDecoder) elements() error {
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
	for i := 0; ; i++ {
		e := d.slot(i)
		if d.generalOnly || !d.canonical(e) {
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

// element decodes one {"id":…,"box":…} over *e.
func (d *ingestDecoder) element(e *transformers.Element, i int) error {
	c, err := d.token()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.null()
	}
	if c != '{' {
		return d.errorf(ingestSyntax, "element %d: invalid character %q: an element must be an object", i, c)
	}
	return d.members(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.id(&e.ID, i)
		case "box":
			return d.box(&e.Box, i)
		}
		return ingestErrorf(ingestUnknownField, "element %d: json: unknown field %q", i, key)
	})
}

func (d *ingestDecoder) id(id *uint64, i int) error {
	c, err := d.token()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.null()
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	v, n, ok := idDigits(lit.text)
	if !ok || n != len(lit.text) {
		return ingestErrorf(ingestSyntax, "element %d: id %s is not an integer in [0, 2^64)", i, lit.text)
	}
	*id = v
	return nil
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

func (d *ingestDecoder) box(b *transformers.Box, i int) error {
	c, err := d.token()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.null()
	}
	if c != '{' {
		return d.errorf(ingestSyntax, "element %d: invalid character %q: a box must be an object", i, c)
	}
	return d.members(func(key []byte) error {
		switch string(key) {
		case "lo":
			return d.triple(&b.Lo, i, "lo")
		case "hi":
			return d.triple(&b.Hi, i, "hi")
		}
		return ingestErrorf(ingestUnknownField, "element %d: json: unknown field %q", i, key)
	})
}

// triple decodes [x,y,z]: exactly three numbers.
func (d *ingestDecoder) triple(p *transformers.Point, i int, name string) error {
	notThree := func() error {
		return ingestErrorf(ingestTriple, "element %d: %s must be exactly three numbers", i, name)
	}
	c, err := d.token()
	if err != nil {
		return err
	}
	if c != '[' {
		return notThree()
	}
	d.pos++
	for dim := 0; ; dim++ {
		if c, err = d.token(); err != nil {
			return err
		}
		if dim == len(p) || !(c == '-' || '0' <= c && c <= '9') {
			return notThree()
		}
		lit, err := d.number()
		if err != nil {
			return err
		}
		if p[dim], err = lit.float(); err != nil {
			return ingestErrorf(ingestSyntax, "element %d: %s: number %s out of range", i, name, lit.text)
		}
		if c, err = d.token(); err != nil {
			return err
		}
		d.pos++
		switch {
		case c == ']' && dim == len(p)-1:
			return nil
		case c == ',':
		default:
			d.pos--
			return notThree()
		}
	}
}
