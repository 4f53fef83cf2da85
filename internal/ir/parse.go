package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseModule parses the textual IR syntax produced by WriteModule.
// Parsing is two-pass so functions and globals may reference entities
// defined later in the file.
func ParseModule(src string) (*Module, error) {
	p := &parser{lex: newLexer(src), headerOnly: true}
	m, err := p.parseModule()
	if err != nil {
		return nil, fmt.Errorf("ir: parse: line %d: %w", p.lex.line, err)
	}
	p2 := &parser{lex: newLexer(src), mod: m}
	if _, err := p2.parseModule(); err != nil {
		return nil, fmt.Errorf("ir: parse: line %d: %w", p2.lex.line, err)
	}
	return m, nil
}

// MustParseModule is ParseModule that panics on error; intended for
// tests and examples with literal IR.
func MustParseModule(src string) *Module {
	m, err := ParseModule(src)
	if err != nil {
		panic(err)
	}
	return m
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokLocal  // %name
	tokGlobal // @name
	tokNumber
	tokString
	tokPunct
)

type token struct {
	kind tokKind
	text string
}

type lexer struct {
	src  string
	pos  int
	line int
	tok  token
}

func newLexer(src string) *lexer {
	l := &lexer{src: src, line: 1}
	l.next()
	return l
}

func (l *lexer) next() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == ';': // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		l.tok = token{kind: tokEOF}
		return
	}
	c := l.src[l.pos]
	switch {
	case c == '%' || c == '@':
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		kind := tokLocal
		if c == '@' {
			kind = tokGlobal
		}
		l.tok = token{kind: kind, text: l.src[start+1 : l.pos]}
	case c == '"':
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		l.pos++ // closing quote
		l.tok = token{kind: tokString, text: l.src[start+1 : l.pos-1]}
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		l.tok = token{kind: tokIdent, text: l.src[start:l.pos]}
	case c == '-' || isDigit(c):
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' ||
			l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			((l.src[l.pos] == '+' || l.src[l.pos] == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
			l.pos++
		}
		l.tok = token{kind: tokNumber, text: l.src[start:l.pos]}
	case strings.IndexByte("(){}[]=,:*.", c) >= 0:
		// "..." is one token.
		if c == '.' && strings.HasPrefix(l.src[l.pos:], "...") {
			l.pos += 3
			l.tok = token{kind: tokPunct, text: "..."}
			return
		}
		l.pos++
		l.tok = token{kind: tokPunct, text: string(c)}
	default:
		l.tok = token{kind: tokPunct, text: string(c)}
		l.pos++
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c))
}

func isIdentByte(c byte) bool {
	return c == '_' || c == '$' || c == '.' || c == '-' || unicode.IsLetter(rune(c)) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// --- parser ---

type parser struct {
	lex *lexer
	mod *Module
	fn  *Function

	// headerOnly marks the first pass: declare globals and function
	// signatures, skipping bodies, so later passes resolve forward
	// references between top-level entities.
	headerOnly bool

	locals map[string]Value
	blocks map[string]*Block

	// fwds tracks unresolved forward references by name.
	fwds map[string][]*fwdRef
}

// fwdRef is a placeholder operand for a local value referenced before
// its definition (legal through phis and cross-block uses).
type fwdRef struct {
	name string
	ty   *Type
}

func (f *fwdRef) Type() *Type   { return f.ty }
func (f *fwdRef) Ident() string { return "%" + f.name }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func (p *parser) tok() token { return p.lex.tok }
func (p *parser) advance()   { p.lex.next() }
func (p *parser) at(text string) bool {
	return p.lex.tok.kind == tokPunct && p.lex.tok.text == text ||
		p.lex.tok.kind == tokIdent && p.lex.tok.text == text
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, got %q", text, p.lex.tok.text)
	}
	return nil
}

func (p *parser) parseModule() (*Module, error) {
	name := "module"
	if p.accept("module") {
		if p.tok().kind != tokString {
			return nil, p.errf("expected module name string")
		}
		name = p.tok().text
		p.advance()
	}
	if p.mod == nil {
		p.mod = NewModule(name)
	}
	for {
		switch {
		case p.tok().kind == tokEOF:
			if err := p.resolveFwds(); err != nil {
				return nil, err
			}
			return p.mod, nil
		case p.at("global"):
			if err := p.parseGlobal(); err != nil {
				return nil, err
			}
		case p.at("define"):
			if err := p.parseFunc(false); err != nil {
				return nil, err
			}
		case p.at("declare"):
			if err := p.parseFunc(true); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unexpected token %q at top level", p.tok().text)
		}
	}
}

func (p *parser) parseGlobal() error {
	p.advance() // global
	if p.tok().kind != tokGlobal {
		return p.errf("expected @name after global")
	}
	name := p.tok().text
	p.advance()
	ty, err := p.parseType()
	if err != nil {
		return err
	}
	var init *Const
	if p.accept("=") {
		v, err := p.parseConstOfType(ty)
		if err != nil {
			return err
		}
		init = v
	}
	if p.headerOnly {
		if p.mod.Global(name) != nil {
			return p.errf("duplicate global @%s", name)
		}
		p.mod.NewGlobal(name, ty, init)
	}
	return nil
}

func (p *parser) parseFunc(decl bool) error {
	p.advance() // define / declare
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	if p.tok().kind != tokGlobal {
		return p.errf("expected function name")
	}
	name := p.tok().text
	p.advance()
	if err := p.expect("("); err != nil {
		return err
	}
	var ptys []*Type
	var pnames []string
	variadic := false
	for !p.accept(")") {
		if len(ptys) > 0 {
			if err := p.expect(","); err != nil {
				return err
			}
		}
		if p.accept("...") {
			variadic = true
			continue
		}
		pt, err := p.parseType()
		if err != nil {
			return err
		}
		pn := ""
		if p.tok().kind == tokLocal {
			pn = p.tok().text
			p.advance()
		}
		ptys = append(ptys, pt)
		pnames = append(pnames, pn)
	}
	var sig *Type
	if variadic {
		sig = p.mod.Ctx.VariadicFunc(ret, ptys...)
	} else {
		sig = p.mod.Ctx.Func(ret, ptys...)
	}
	var f *Function
	if p.headerOnly {
		if p.mod.Func(name) != nil {
			return p.errf("duplicate function @%s", name)
		}
		f = p.mod.NewFunc(name, sig, pnames...)
	} else {
		f = p.mod.Func(name)
		if f == nil {
			return p.errf("internal: function @%s missing in second pass", name)
		}
	}
	if decl {
		return nil
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	if p.headerOnly {
		// Skip the body; it parses in the second pass.
		depth := 1
		for depth > 0 {
			switch {
			case p.tok().kind == tokEOF:
				return p.errf("unterminated function body for @%s", name)
			case p.at("{"):
				depth++
			case p.at("}"):
				depth--
			}
			p.advance()
		}
		return nil
	}
	p.fn = f
	p.locals = make(map[string]Value)
	p.blocks = make(map[string]*Block)
	if p.fwds == nil {
		p.fwds = make(map[string][]*fwdRef)
	}
	for _, prm := range f.Params {
		p.locals[prm.Nam] = prm
	}
	defCount := 0
	defined := make(map[string]bool)
	for !p.accept("}") {
		if p.tok().kind != tokIdent {
			return p.errf("expected block label, got %q", p.tok().text)
		}
		label := p.tok().text
		p.advance()
		if err := p.expect(":"); err != nil {
			return err
		}
		if defined[label] {
			return p.errf("duplicate block label %s in @%s", label, name)
		}
		defined[label] = true
		b, err := p.getBlock(label)
		if err != nil {
			return err
		}
		// Blocks may be created early by forward branch references; keep
		// f.Blocks in textual definition order.
		f.RemoveBlock(b)
		f.Blocks = append(f.Blocks, nil)
		copy(f.Blocks[defCount+1:], f.Blocks[defCount:])
		f.Blocks[defCount] = b
		defCount++
		for !p.at("}") && !(p.tok().kind == tokIdent && p.peekIsLabel()) {
			in, err := p.parseInstr()
			if err != nil {
				return err
			}
			b.Append(in)
			if in.Nam != "" && !in.Ty.IsVoid() {
				p.locals[in.Nam] = in
			}
		}
	}
	if err := p.resolveFwds(); err != nil {
		return err
	}
	p.fn = nil
	return nil
}

// peekIsLabel reports whether the current ident token is a block label
// (followed by ':'). The lexer has one-token lookahead only, so peek at
// the raw input.
func (p *parser) peekIsLabel() bool {
	i := p.lex.pos
	for i < len(p.lex.src) && (p.lex.src[i] == ' ' || p.lex.src[i] == '\t') {
		i++
	}
	return i < len(p.lex.src) && p.lex.src[i] == ':'
}

// getBlock returns the block with the given label, creating it lazily so
// branches may reference blocks textually defined later. Labels must be
// printable as bare identifiers (block definitions print without a '%'
// sigil), so names that would re-lex as numbers are rejected.
func (p *parser) getBlock(label string) (*Block, error) {
	if b, ok := p.blocks[label]; ok {
		return b, nil
	}
	if label == "" || !isIdentStart(label[0]) {
		return nil, p.errf("bad block label %%%s", label)
	}
	b := p.fn.NewBlock(label)
	p.blocks[label] = b
	return b, nil
}

func (p *parser) parseType() (*Type, error) {
	t, err := p.parsePrimaryType()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at("*"):
			p.advance()
			t = p.mod.Ctx.Pointer(t)
		case p.at("("):
			p.advance()
			var params []*Type
			variadic := false
			for !p.accept(")") {
				if len(params) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				if p.accept("...") {
					variadic = true
					continue
				}
				pt, err := p.parseType()
				if err != nil {
					return nil, err
				}
				params = append(params, pt)
			}
			if variadic {
				t = p.mod.Ctx.VariadicFunc(t, params...)
			} else {
				t = p.mod.Ctx.Func(t, params...)
			}
		default:
			return t, nil
		}
	}
}

func (p *parser) parsePrimaryType() (*Type, error) {
	tk := p.tok()
	switch {
	case tk.kind == tokIdent && tk.text == "void":
		p.advance()
		return p.mod.Ctx.Void, nil
	case tk.kind == tokIdent && tk.text == "float":
		p.advance()
		return p.mod.Ctx.F32, nil
	case tk.kind == tokIdent && tk.text == "double":
		p.advance()
		return p.mod.Ctx.F64, nil
	case tk.kind == tokIdent && tk.text == "label":
		p.advance()
		return p.mod.Ctx.Label, nil
	case tk.kind == tokIdent && len(tk.text) > 1 && tk.text[0] == 'i':
		bits, err := strconv.Atoi(tk.text[1:])
		if err != nil {
			return nil, p.errf("bad integer type %q", tk.text)
		}
		p.advance()
		return p.mod.Ctx.Int(bits), nil
	case p.at("["):
		p.advance()
		if p.tok().kind != tokNumber {
			return nil, p.errf("expected array length")
		}
		n, err := strconv.Atoi(p.tok().text)
		if err != nil {
			return nil, err
		}
		p.advance()
		if err := p.expect("x"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return p.mod.Ctx.Array(n, elem), nil
	case p.at("{"):
		p.advance()
		var fields []*Type
		for !p.accept("}") {
			if len(fields) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			ft, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, ft)
		}
		return p.mod.Ctx.Struct(fields...), nil
	}
	return nil, p.errf("expected type, got %q", tk.text)
}

// parseConstOfType parses a literal constant of a known type.
func (p *parser) parseConstOfType(ty *Type) (*Const, error) {
	tk := p.tok()
	switch {
	case tk.kind == tokIdent && tk.text == "null":
		if !ty.IsPointer() {
			return nil, p.errf("null literal of non-pointer type %s", ty)
		}
		p.advance()
		return ConstNull(ty), nil
	case tk.kind == tokIdent && tk.text == "undef":
		p.advance()
		return ConstUndef(ty), nil
	case tk.kind == tokNumber:
		p.advance()
		if ty.IsFloat() {
			v, err := strconv.ParseFloat(tk.text, 64)
			if err != nil {
				return nil, err
			}
			return ConstFloat(ty, v), nil
		}
		if !ty.IsInt() {
			return nil, p.errf("integer literal of non-integer type %s", ty)
		}
		v, err := strconv.ParseInt(tk.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return ConstInt(ty, v), nil
	}
	return nil, p.errf("expected constant of type %s, got %q", ty, tk.text)
}

// parseRefOfType parses an operand reference whose type is already
// known: a local, a global, or a literal constant.
func (p *parser) parseRefOfType(ty *Type) (Value, error) {
	tk := p.tok()
	switch tk.kind {
	case tokLocal:
		p.advance()
		return p.lookupLocal(tk.text, ty), nil
	case tokGlobal:
		p.advance()
		if f := p.mod.Func(tk.text); f != nil {
			return f, nil
		}
		if g := p.mod.Global(tk.text); g != nil {
			return g, nil
		}
		return nil, p.errf("unknown global @%s", tk.text)
	default:
		return p.parseConstOfType(ty)
	}
}

// lookupLocal resolves a local name, returning a forward-reference
// placeholder if the name is not yet defined.
func (p *parser) lookupLocal(name string, ty *Type) Value {
	if v, ok := p.locals[name]; ok {
		return v
	}
	fw := &fwdRef{name: name, ty: ty}
	p.fwds[name] = append(p.fwds[name], fw)
	return fw
}

// resolveFwds patches all forward references recorded for the current
// function and fails on any that remain undefined.
func (p *parser) resolveFwds() error {
	if len(p.fwds) == 0 {
		return nil
	}
	byRef := make(map[*fwdRef]Value)
	for name, refs := range p.fwds {
		v, ok := p.locals[name]
		if !ok {
			return p.errf("undefined local %%%s", name)
		}
		for _, r := range refs {
			byRef[r] = v
		}
	}
	if p.fn != nil {
		p.fn.Instructions(func(in *Instr) {
			for i, op := range in.Operands {
				if fw, ok := op.(*fwdRef); ok {
					in.Operands[i] = byRef[fw]
				}
			}
		})
	}
	p.fwds = make(map[string][]*fwdRef)
	return nil
}

// parseTypedOperand parses "type ref" or "label %name".
func (p *parser) parseTypedOperand() (Value, error) {
	if p.at("label") {
		p.advance()
		if p.tok().kind != tokLocal {
			return nil, p.errf("expected label name")
		}
		b, err := p.getBlock(p.tok().text)
		if err != nil {
			return nil, err
		}
		p.advance()
		return b, nil
	}
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return p.parseRefOfType(ty)
}

var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode)
	for op := OpRet; op < numOpcodes; op++ {
		m[op.String()] = op
	}
	return m
}()

func (p *parser) parseInstr() (*Instr, error) {
	name := ""
	if p.tok().kind == tokLocal {
		name = p.tok().text
		p.advance()
		if err := p.expect("="); err != nil {
			return nil, err
		}
	}
	if p.tok().kind != tokIdent {
		return nil, p.errf("expected opcode, got %q", p.tok().text)
	}
	mnemonic := p.tok().text
	p.advance()
	ctx := p.mod.Ctx

	switch mnemonic {
	case "ret":
		if p.accept("void") {
			return &Instr{Op: OpRet, Ty: ctx.Void}, nil
		}
		v, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpRet, Ty: ctx.Void, Operands: []Value{v}}, nil

	case "br":
		if p.at("label") {
			dst, err := p.parseTypedOperand()
			if err != nil {
				return nil, err
			}
			return &Instr{Op: OpBr, Ty: ctx.Void, Operands: []Value{dst}}, nil
		}
		cond, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		t, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		f, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpCondBr, Ty: ctx.Void, Operands: []Value{cond, t, f}}, nil

	case "switch":
		v, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		def, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		ops := []Value{v, def}
		if err := p.expect("["); err != nil {
			return nil, err
		}
		for !p.accept("]") {
			if len(ops) > 2 {
				p.accept(",")
			}
			cv, err := p.parseConstOfType(v.Type())
			if err != nil {
				return nil, err
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			dst, err := p.parseTypedOperand()
			if err != nil {
				return nil, err
			}
			ops = append(ops, cv, dst)
		}
		return &Instr{Op: OpSwitch, Ty: ctx.Void, Operands: ops}, nil

	case "unreachable":
		return &Instr{Op: OpUnreachable, Ty: ctx.Void}, nil

	case "alloca":
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpAlloca, Ty: ctx.Pointer(elem), AllocTy: elem, Nam: name}, nil

	case "load":
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		ptr, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpLoad, Ty: ty, Operands: []Value{ptr}, Nam: name}, nil

	case "store":
		v, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		ptr, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpStore, Ty: ctx.Void, Operands: []Value{v, ptr}}, nil

	case "getelementptr":
		ptr, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		ops := []Value{ptr}
		for p.accept(",") {
			idx, err := p.parseTypedOperand()
			if err != nil {
				return nil, err
			}
			ops = append(ops, idx)
		}
		rt, err := gepResultType(ctx, ptr.Type(), ops[1:])
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpGEP, Ty: rt, Operands: ops, Nam: name}, nil

	case "icmp", "fcmp":
		op := OpICmp
		if mnemonic == "fcmp" {
			op = OpFCmp
		}
		if p.tok().kind != tokIdent {
			return nil, p.errf("expected predicate")
		}
		pred, ok := predByName[p.tok().text]
		if !ok {
			return nil, p.errf("unknown predicate %q", p.tok().text)
		}
		p.advance()
		lhs, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		rhs, err := p.parseRefOfType(lhs.Type())
		if err != nil {
			return nil, err
		}
		return &Instr{Op: op, Ty: ctx.I1, Predicate: pred, Operands: []Value{lhs, rhs}, Nam: name}, nil

	case "select":
		cond, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		tv, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		fv, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpSelect, Ty: tv.Type(), Operands: []Value{cond, tv, fv}, Nam: name}, nil

	case "phi":
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		in := &Instr{Op: OpPhi, Ty: ty, Nam: name}
		for {
			if err := p.expect("["); err != nil {
				return nil, err
			}
			v, err := p.parseRefOfType(ty)
			if err != nil {
				return nil, err
			}
			if err := p.expect(","); err != nil {
				return nil, err
			}
			if p.tok().kind != tokLocal {
				return nil, p.errf("expected incoming block")
			}
			b, err := p.getBlock(p.tok().text)
			if err != nil {
				return nil, err
			}
			p.advance()
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			in.Operands = append(in.Operands, v)
			in.IncomingBlocks = append(in.IncomingBlocks, b)
			if !p.accept(",") {
				break
			}
		}
		return in, nil

	case "call", "invoke":
		retTy, err := p.parseType()
		if err != nil {
			return nil, err
		}
		var callee Value
		switch p.tok().kind {
		case tokGlobal:
			f := p.mod.Func(p.tok().text)
			if f == nil {
				return nil, p.errf("call of unknown function @%s", p.tok().text)
			}
			callee = f
			p.advance()
		case tokLocal:
			nm := p.tok().text
			p.advance()
			v, ok := p.locals[nm]
			if !ok {
				return nil, p.errf("indirect call through undefined %%%s", nm)
			}
			callee = v
		default:
			return nil, p.errf("expected callee")
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		ops := []Value{callee}
		for !p.accept(")") {
			if len(ops) > 1 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			a, err := p.parseTypedOperand()
			if err != nil {
				return nil, err
			}
			ops = append(ops, a)
		}
		if mnemonic == "call" {
			return &Instr{Op: OpCall, Ty: retTy, Operands: ops, Nam: name}, nil
		}
		if err := p.expect("to"); err != nil {
			return nil, err
		}
		normal, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect("unwind"); err != nil {
			return nil, err
		}
		unwind, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		ops = append(ops, normal, unwind)
		return &Instr{Op: OpInvoke, Ty: retTy, Operands: ops, Nam: name}, nil
	}

	op, ok := opByName[mnemonic]
	if !ok {
		return nil, p.errf("unknown opcode %q", mnemonic)
	}
	switch {
	case op.IsBinary():
		lhs, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		rhs, err := p.parseRefOfType(lhs.Type())
		if err != nil {
			return nil, err
		}
		return &Instr{Op: op, Ty: lhs.Type(), Operands: []Value{lhs, rhs}, Nam: name}, nil
	case op.IsCast():
		v, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expect("to"); err != nil {
			return nil, err
		}
		to, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return &Instr{Op: op, Ty: to, Operands: []Value{v}, Nam: name}, nil
	}
	return nil, p.errf("cannot parse opcode %q", mnemonic)
}

// gepResultType computes the pointer type produced by a GEP.
func gepResultType(ctx *TypeContext, ptrTy *Type, indices []Value) (*Type, error) {
	if !ptrTy.IsPointer() {
		return nil, fmt.Errorf("gep of non-pointer %s", ptrTy)
	}
	cur := ptrTy.Elem
	for i, idx := range indices {
		if i == 0 {
			continue
		}
		switch cur.Kind {
		case ArrayKind:
			cur = cur.Elem
		case StructKind:
			c, ok := idx.(*Const)
			if !ok {
				return nil, fmt.Errorf("gep struct index must be constant")
			}
			if c.IntVal < 0 || c.IntVal >= int64(len(cur.Fields)) {
				return nil, fmt.Errorf("gep struct index %d out of range [0,%d)", c.IntVal, len(cur.Fields))
			}
			cur = cur.Fields[c.IntVal]
		default:
			return nil, fmt.Errorf("gep through non-aggregate %s", cur)
		}
	}
	return ctx.Pointer(cur), nil
}
