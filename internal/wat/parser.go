package wat

import (
	"math"
	"strconv"
	"strings"
)

// Parse parses wat source into a Module AST. The grammar is the
// WebAssembly text format restricted to the subset internal/wat
// lowers (see the package comment): one module of plain functions.
// Both the flat instruction form (block … end) and the folded
// s-expression form ((i32.add (local.get 0) …), (if … (then …)
// (else …))) are accepted; folded bodies are desugared into the flat
// sequence during parsing. The module wrapper is optional, matching
// the spec's top-level abbreviation.
func Parse(src string) (*Module, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseModule()
}

func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == tokEOF {
			return toks, nil
		}
	}
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) peek() token { // second token of lookahead (EOF-safe)
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.Kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s %q", k, t.Kind, t.Text)
	}
	return p.advance(), nil
}

// parseModule parses `(module $id? field*)` or the wrapperless
// abbreviation `field*`.
func (p *parser) parseModule() (*Module, error) {
	m := &Module{}
	wrapped := false
	if p.cur().Kind == tokLParen && p.peek().Kind == tokAtom && p.peek().Text == "module" {
		wrapped = true
		p.advance() // (
		p.advance() // module
		if p.cur().Kind == tokID {
			m.Name = p.advance().Text
		}
	}
	for {
		t := p.cur()
		if wrapped && t.Kind == tokRParen {
			p.advance()
			break
		}
		if t.Kind == tokEOF {
			if wrapped {
				return nil, errf(t.Pos, "unexpected end of input: unclosed (module")
			}
			break
		}
		if t.Kind != tokLParen {
			return nil, errf(t.Pos, "expected a (func …) field, found %s %q", t.Kind, t.Text)
		}
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		m.Funcs = append(m.Funcs, fn)
	}
	if t := p.cur(); t.Kind != tokEOF {
		return nil, errf(t.Pos, "trailing input after module: %s %q", t.Kind, t.Text)
	}
	return m, nil
}

// parseFunc parses one `(func $id? (param …)* (result …)* (local …)*
// instr*)` definition, the opening paren still pending.
func (p *parser) parseFunc() (*Func, error) {
	open, err := p.expect(tokLParen)
	if err != nil {
		return nil, err
	}
	kw := p.cur()
	if kw.Kind != tokAtom || kw.Text != "func" {
		return nil, errf(kw.Pos, "unsupported module field %q (the subset has only func)", kw.Text)
	}
	p.advance()
	fn := &Func{Pos: open.Pos}
	if p.cur().Kind == tokID {
		fn.Name = p.advance().Text
	}

	// Header groups in grammar order: params, then results, then locals.
	stage := 0 // 0=params, 1=results, 2=locals
	for p.cur().Kind == tokLParen && p.peek().Kind == tokAtom {
		var err error
		switch p.peek().Text {
		case "param":
			if stage > 0 {
				return nil, errf(p.peek().Pos, "(param …) must precede results and locals")
			}
			fn.Params, err = p.parseLocalGroup("param", fn.Params)
		case "result":
			if stage > 1 {
				return nil, errf(p.peek().Pos, "(result …) must precede locals")
			}
			stage = 1
			fn.Results, err = p.parseResultGroup(fn.Results)
		case "local":
			stage = 2
			fn.Locals, err = p.parseLocalGroup("local", fn.Locals)
		default:
			err = errStopHeader
		}
		if err == errStopHeader {
			break
		}
		if err != nil {
			return nil, err
		}
	}

	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return fn, nil
}

// errStopHeader is an internal sentinel: the next paren group is not a
// header field, so function-body parsing takes over.
var errStopHeader = errf(Pos{}, "not a header group")

// parseLocalGroup parses `(param $x i32)` / `(param i32 i64 …)` (and
// the same shapes for local), appending to list.
func (p *parser) parseLocalGroup(kw string, list []Local) ([]Local, error) {
	p.advance() // (
	p.advance() // kw
	if p.cur().Kind == tokID {
		name := p.advance().Text
		ty, err := p.parseValType(kw)
		if err != nil {
			return nil, err
		}
		list = append(list, Local{Name: name, Type: ty})
		_, err = p.expect(tokRParen)
		return list, err
	}
	for p.cur().Kind == tokAtom {
		ty, err := p.parseValType(kw)
		if err != nil {
			return nil, err
		}
		list = append(list, Local{Type: ty})
	}
	_, err := p.expect(tokRParen)
	return list, err
}

// parseResultGroup parses `(result t*)`, appending to list.
func (p *parser) parseResultGroup(list []ValType) ([]ValType, error) {
	p.advance() // (
	p.advance() // result
	for p.cur().Kind == tokAtom {
		ty, err := p.parseValType("result")
		if err != nil {
			return nil, err
		}
		list = append(list, ty)
	}
	_, err := p.expect(tokRParen)
	return list, err
}

func (p *parser) parseValType(ctx string) (ValType, error) {
	t := p.cur()
	if t.Kind != tokAtom {
		return 0, errf(t.Pos, "expected a value type in %s, found %s %q", ctx, t.Kind, t.Text)
	}
	ty, ok := valTypeByName[t.Text]
	if !ok {
		return 0, errf(t.Pos, "unknown value type %q (want i32, i64, f32 or f64)", t.Text)
	}
	p.advance()
	return ty, nil
}

// parseBody parses a flat/folded instruction sequence up to (but not
// consuming) the closing right paren of the enclosing group.
func (p *parser) parseBody() ([]Instr, error) {
	var out []Instr
	for {
		switch t := p.cur(); t.Kind {
		case tokRParen:
			return out, nil
		case tokAtom:
			in, err := p.parsePlainInstr()
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		case tokLParen:
			var err error
			out, err = p.parseFolded(out)
			if err != nil {
				return nil, err
			}
		default:
			return nil, errf(t.Pos, "expected an instruction, found %s %q", t.Kind, t.Text)
		}
	}
}

// parsePlainInstr parses one flat instruction: a mnemonic atom plus
// its immediates. Unknown mnemonics with no immediates are accepted
// here and rejected with a positioned error during lowering, keeping
// the parser's job purely syntactic.
func (p *parser) parsePlainInstr() (Instr, error) {
	t := p.advance()
	in := Instr{Op: t.Text, Pos: t.Pos}
	switch t.Text {
	case "block", "loop", "if":
		if p.cur().Kind == tokID {
			in.Sym = p.advance().Text
		}
		// Blocktype: `(result t)` — but a left paren may also open a
		// folded instruction of the body, so look two tokens ahead.
		if p.cur().Kind == tokLParen && p.peek().Kind == tokAtom && p.peek().Text == "result" {
			res, err := p.parseResultGroup(nil)
			if err != nil {
				return in, err
			}
			if len(res) != 1 {
				return in, errf(t.Pos, "%s result arity %d unsupported (0 or 1)", t.Text, len(res))
			}
			in.Result, in.HasResult = res[0], true
		}
	case "else", "end":
		// The text format allows repeating the label on else/end.
		if p.cur().Kind == tokID {
			in.Sym = p.advance().Text
		}
	case "br", "br_if", "call", "local.get", "local.set", "local.tee":
		if err := p.parseIndexImm(&in); err != nil {
			return in, err
		}
	case "i32.const", "i64.const":
		bits := 32
		if t.Text == "i64.const" {
			bits = 64
		}
		v, err := p.parseIntImm(bits)
		if err != nil {
			return in, err
		}
		in.IntVal = v
	case "f32.const", "f64.const":
		bits := 32
		if t.Text == "f64.const" {
			bits = 64
		}
		v, err := p.parseFloatImm(bits)
		if err != nil {
			return in, err
		}
		in.FloatVal = v
	}
	return in, nil
}

// parseIndexImm parses a $id or numeric index immediate.
func (p *parser) parseIndexImm(in *Instr) error {
	t := p.cur()
	switch t.Kind {
	case tokID:
		in.Sym = p.advance().Text
		return nil
	case tokAtom:
		n, err := strconv.ParseUint(stripSeps(t.Text), 10, 31)
		if err != nil {
			return errf(t.Pos, "%s: invalid index %q", in.Op, t.Text)
		}
		p.advance()
		in.Idx, in.HasIdx = int(n), true
		return nil
	}
	return errf(t.Pos, "%s: expected an index or $name, found %s %q", in.Op, t.Kind, t.Text)
}

// parseIntImm parses an integer literal for iNN.const, accepting the
// signed and unsigned ranges of the width and canonicalizing to the
// sign-extended value.
func (p *parser) parseIntImm(bits int) (int64, error) {
	t := p.cur()
	if t.Kind != tokAtom {
		return 0, errf(t.Pos, "expected an integer literal, found %s %q", t.Kind, t.Text)
	}
	s := stripSeps(t.Text)
	neg := false
	if strings.HasPrefix(s, "+") {
		s = s[1:]
	} else if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		base = 16
		s = s[2:]
	}
	u, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return 0, errf(t.Pos, "invalid integer literal %q", t.Text)
	}
	var v int64
	if neg {
		if u > 1<<(bits-1) {
			return 0, errf(t.Pos, "integer literal %q out of i%d range", t.Text, bits)
		}
		v = -int64(u)
	} else {
		if bits < 64 && u >= 1<<bits {
			return 0, errf(t.Pos, "integer literal %q out of i%d range", t.Text, bits)
		}
		v = int64(u)
	}
	if bits < 64 {
		v = v << (64 - bits) >> (64 - bits) // canonical sign-extended form
	}
	p.advance()
	return v, nil
}

// parseFloatImm parses a float literal for fNN.const, including the
// inf/nan keywords, canonicalizing NaN payloads and rounding f32
// immediates to float32 precision.
func (p *parser) parseFloatImm(bits int) (float64, error) {
	t := p.cur()
	if t.Kind != tokAtom {
		return 0, errf(t.Pos, "expected a float literal, found %s %q", t.Kind, t.Text)
	}
	s := stripSeps(t.Text)
	var v float64
	switch {
	case s == "inf" || s == "+inf":
		v = math.Inf(1)
	case s == "-inf":
		v = math.Inf(-1)
	case s == "nan" || s == "+nan" || s == "-nan" ||
		strings.HasPrefix(s, "nan:") || strings.HasPrefix(s, "-nan:") || strings.HasPrefix(s, "+nan:"):
		v = math.NaN() // payloads canonicalized
	default:
		var err error
		v, err = strconv.ParseFloat(s, bits)
		if err != nil {
			return 0, errf(t.Pos, "invalid float literal %q", t.Text)
		}
	}
	if bits == 32 {
		v = float64(float32(v))
	}
	p.advance()
	return v, nil
}

// stripSeps drops the optional `_` digit separators the text format
// allows in numeric literals.
func stripSeps(s string) string {
	if !strings.Contains(s, "_") {
		return s
	}
	return strings.ReplaceAll(s, "_", "")
}

// parseFolded desugars one folded expression `(op …)` into flat form,
// appending to out: operand subexpressions first, then the operator.
// Folded block/loop append their body then `end`; folded if appends
// condition, `if`, then-branch, optional `else` branch and `end`.
func (p *parser) parseFolded(out []Instr) ([]Instr, error) {
	p.advance() // (
	t := p.cur()
	if t.Kind != tokAtom {
		return nil, errf(t.Pos, "expected a mnemonic after '(', found %s %q", t.Kind, t.Text)
	}
	head, err := p.parsePlainInstr()
	if err != nil {
		return nil, err
	}
	switch head.Op {
	case "block", "loop":
		body, err := p.parseBody()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		out = append(out, head)
		out = append(out, body...)
		return append(out, Instr{Op: "end", Pos: head.Pos}), nil
	case "if":
		// Condition: folded expressions until the (then …) clause.
		for p.cur().Kind == tokLParen && !(p.peek().Kind == tokAtom && p.peek().Text == "then") {
			var err error
			out, err = p.parseFolded(out)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, head)
		if p.cur().Kind != tokLParen || p.peek().Text != "then" {
			return nil, errf(head.Pos, "folded if requires a (then …) clause")
		}
		p.advance() // (
		p.advance() // then
		thenBody, err := p.parseBody()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		out = append(out, thenBody...)
		if p.cur().Kind == tokLParen && p.peek().Kind == tokAtom && p.peek().Text == "else" {
			p.advance() // (
			p.advance() // else
			elseBody, err := p.parseBody()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			out = append(out, Instr{Op: "else", Pos: head.Pos})
			out = append(out, elseBody...)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return append(out, Instr{Op: "end", Pos: head.Pos}), nil
	case "else", "end":
		return nil, errf(head.Pos, "%s cannot be folded", head.Op)
	default:
		for p.cur().Kind == tokLParen {
			var err error
			out, err = p.parseFolded(out)
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return append(out, head), nil
	}
}
