"""Surface syntax for algebra elements: parser, evaluator, printer.

Grammar (largest-munch lexing, whitespace ignored):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/')? factor)*        # juxtaposition = '*'
    factor  := '-' factor | power
    power   := primary ('^' ('-'? INT))?      # |INT| <= MAX_EXPONENT
    primary := INT | IDENT | '(' expr ')'
    IDENT   := e1 | e2 | e3 | z | zt | z1 | zp | q    # never followed by a digit

An identifier directly followed by a digit is one unknown word, so "e12" and
"q2" are errors; "e1 2", "e1*2" and "2e1" are products and "e3e2" is e3*e2.

'^' binds tighter than '*' and '/', which bind tighter than '+' and '-';
products associate to the left.  A product x*y^n with x one monomial is
evaluated as n right multiplications by y, which gives the same normal form
as x times y^n.  Negative exponents and division require the base (resp.
divisor) to be an invertible scalar; 'q^-2' and rationals like '3/5' are the
common cases.  Evaluation returns the PBW normal form, so
're-parsing the printed form of an element reproduces it exactly.
"""

from __future__ import annotations

import re

from .pbw import GENERATOR_NAMES, PBWAlgebra, letter_image

IDENTIFIERS = ("e1", "e2", "e3", "z", "zt", "z1", "zp", "q")

# Largest accepted |exponent| after '^'.  It covers e_i^(2l) at every
# accepted order m (cyclotomic.MAX_ORDER) and keeps the work of one power
# bounded.
MAX_EXPONENT = 2000

# known identifiers are matched longest-first so juxtaposed names split
# ("e3e2" lexes as e3, e2), but never before a digit, where the split would
# be a guess ("e12"); "z" never matches the head of zt, zp or z1, so "zt2"
# cannot fall back to z and is unknown as a whole, like any other word
_TOKEN = re.compile(
    r"\s*(?:(\d+)|(e1|e2|e3|zt|zp|z1|z(?![tp1])|q)(?!\d)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))"
)


class ParseError(ValueError):
    """Syntax or name error, carrying the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def tokenize(src):
    tokens = []
    idx = 0
    while idx < len(src):
        m = _TOKEN.match(src, idx)
        if m is None:
            stripped = src[idx:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0], len(src) - len(stripped))
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3) is not None:
            raise ParseError("unknown identifier %r" % m.group(3), m.start(3))
        else:
            tokens.append(("op", m.group(4), m.start(4)))
        idx = m.end()
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.src))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, at)

    def parse(self):
        tree = self.expr()
        kind, val, at = self.peek()
        if kind is not None:
            raise ParseError("unexpected trailing input %r" % (val,), at)
        return tree

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = (("add" if val == "+" else "sub"), node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = (("mul" if val == "*" else "div"), node, self.factor())
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val, at = self.take()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, at = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer", at)
            if val > MAX_EXPONENT:
                raise ParseError("exponent exceeds %d" % MAX_EXPONENT, at)
            return ("pow", base, sign * val)
        return base

    def primary(self):
        kind, val, at = self.take()
        if kind == "int":
            return ("int", val)
        if kind == "name":
            return ("name", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a value", at)


def parse(src):
    """Parse source text into an expression tree."""
    return _Parser(src).parse()


def evaluate(tree, alg):
    """Fold an expression tree through the algebra; returns the normal form."""
    if isinstance(tree, str):
        tree = parse(tree)
    # the letters' images, shared by the whole expression, so that each named
    # element (and the zt inside z1) is built once per call
    return _eval(tree, alg, dict(zip(GENERATOR_NAMES, alg.generators())))


def _eval(node, alg, images):
    head = node[0]
    if head == "int":
        return alg.scalar(node[1])
    if head == "name":
        name = node[1]
        if name == "q":
            return alg.scalar(alg.ctx.q)
        return letter_image(name, images, alg.ctx)
    if head == "add":
        return _eval(node[1], alg, images) + _eval(node[2], alg, images)
    if head == "sub":
        return _eval(node[1], alg, images) - _eval(node[2], alg, images)
    if head == "mul":
        left, right = _eval(node[1], alg, images), node[2]
        if right[0] == "pow" and right[2] >= 1 and len(left.terms) == 1:
            # a monomial times a power of a sum, one factor at a time: a
            # large e2^a then meets only the small exponents of the sum
            base = _eval(right[1], alg, images)
            if len(base.terms) != 1:
                for _ in range(right[2]):
                    left = alg.mul(left, base)
                return left
            return left * base ** right[2]
        return left * _eval(right, alg, images)
    if head == "div":
        divisor = _eval(node[2], alg, images).as_scalar()
        return _eval(node[1], alg, images) * divisor.invert()
    if head == "neg":
        return -_eval(node[1], alg, images)
    if head == "pow":
        base = _eval(node[1], alg, images)
        k = node[2]
        if k >= 0:
            return base ** k
        return alg.scalar(base.as_scalar() ** k)
    raise ValueError("malformed expression node %r" % (node,))


def eval_scalar(src, ctx):
    """Evaluate source text that must denote a field scalar."""
    return evaluate(parse(src), PBWAlgebra(ctx)).as_scalar()


def to_src(element):
    """Render a PBW element in the grammar; parse(to_src(x)) evaluates back to x."""
    return repr(element)
