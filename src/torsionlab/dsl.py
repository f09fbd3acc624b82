"""Script language: lexer, parser, canonical printer, and expansion.

Statements define rings and ideals through indexed templates and run
queries against them:

    ring R = vars X[0..4] rules { X[i]^2 -> 0 for i in 0..4 }
    ideal a = < X[i] for i in 0..4 >
    query gamma(a; b)
    query assf(b)
    check fairness(a; b)
    family nil40A levels 4..10 window 3
    run example nil40A

Parsed scripts print back to a canonical form; parsing that form again
yields an equal syntax tree.  ``ring_statement`` and ``ideal_statement``
turn engine objects into statements, so reproducer scripts print through
the same code.  ``QUERY_SIGNATURES`` fixes each query's argument kinds;
the parser rejects anything else.  Exponents
and indices admit only affine expressions in the loop variables; guards
are comparisons joined by "and".
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import ParseError, PatternError
from .ideals import IdealHandle
from .ring import Element, Monomial, RewriteRule, RingPresentation, _Record

# Query kind -> argument kinds.  An argument is an ideal name, an element,
# or either (colon divides by both).
QUERY_SIGNATURES = {
    "gamma": ("ideal", "ideal"),
    "gammabar": ("ideal", "ideal"),
    "colon": ("ideal", "either"),
    "saturation": ("ideal", "ideal"),
    "membership": ("element", "ideal"),
    "radical": ("ideal",),
    "minprimes": ("ideal",),
    "ass": ("ideal",),
    "assf": ("ideal",),
}


# ------------------------------------------------------------------ lexer

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<dots>\.\.)
  | (?P<rel>==|!=|<=|>=)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[=<>{}\[\]();,^*+\-/])
""", re.VERBOSE)


class Token(_Record):
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        # int | ident | punct (value holds the spelling) | end
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def tokenize(source):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError("unexpected character %r" % source[pos],
                             line, col, ())
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                out_kind = kind if kind in ("int", "ident") else "punct"
                tokens.append(Token(out_kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


# -------------------------------------------------------------------- AST

class Affine(_Record):
    """Sum of integer multiples of loop variables plus a constant."""

    __slots__ = ("constant", "coeffs")

    def __init__(self, constant, coeffs):
        self.constant = constant
        self.coeffs = coeffs  # of (name, coeff), sorted by name

    def evaluate(self, env):
        total = self.constant
        for name, c in self.coeffs:
            if name not in env:
                raise PatternError("undefined index %r" % name)
            total += c * env[name]
        return total

    @property
    def is_constant(self):
        return not self.coeffs

    def render(self):
        parts = []
        for name, c in self.coeffs:
            if c == 1:
                parts.append(name)
            else:
                parts.append("%d*%s" % (c, name))
        if self.constant or not parts:
            parts.append(str(self.constant))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _affine_const(n):
    return Affine(n, ())


class VarFactor(_Record):
    __slots__ = ("index", "exponent")

    def __init__(self, index, exponent):
        self.index = index
        self.exponent = exponent

    def render(self):
        body = "X[%s]" % self.index.render()
        if self.exponent == _affine_const(1):
            return body
        if self.exponent.is_constant and self.exponent.constant >= 0:
            return "%s^%d" % (body, self.exponent.constant)
        return "%s^(%s)" % (body, self.exponent.render())


class TermTemplate(_Record):
    __slots__ = ("coeff", "factors")

    def __init__(self, coeff, factors):
        self.coeff = coeff
        self.factors = factors  # of VarFactor

    def render(self):
        if not self.factors:
            return str(self.coeff)
        body = "*".join(f.render() for f in self.factors)
        if self.coeff == 1:
            return body
        return "%s*%s" % (self.coeff, body)


class ElementTemplate(_Record):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms  # of TermTemplate

    def render(self):
        if not self.terms:
            return "0"
        out = self.terms[0].render()
        for t in self.terms[1:]:
            if t.coeff < 0:
                out += " - " + TermTemplate(-t.coeff, t.factors).render()
            else:
                out += " + " + t.render()
        return out


class Comparison(_Record):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def holds(self, env):
        a, b = self.lhs.evaluate(env), self.rhs.evaluate(env)
        return {"==": a == b, "!=": a != b, "<": a < b,
                "<=": a <= b, ">": a > b, ">=": a >= b}[self.op]

    def render(self):
        return "%s %s %s" % (self.lhs.render(), self.op, self.rhs.render())


class RangeBinding(_Record):
    __slots__ = ("names", "low", "high")

    def __init__(self, names, low, high):
        self.names = names  # one or more loop variables sharing the range
        self.low = low
        self.high = high

    def render(self):
        return "%s in %d..%d" % (", ".join(self.names), self.low, self.high)


class Comprehension(_Record):
    __slots__ = ("bindings", "guard")

    def __init__(self, bindings, guard):
        self.bindings = bindings  # of RangeBinding
        self.guard = guard  # of Comparison, conjunction

    def render(self):
        out = "for " + ", ".join(b.render() for b in self.bindings)
        if self.guard:
            out += " if " + " and ".join(c.render() for c in self.guard)
        return out

    def environments(self):
        slots = []
        for b in self.bindings:
            for name in b.names:
                slots.append((name, b.low, b.high))
        names = [s[0] for s in slots]
        if len(set(names)) != len(names):
            raise PatternError("duplicate loop variable in %r" % self.render())
        ranges = [range(low, high + 1) for _, low, high in slots]
        for values in product(*ranges):
            env = dict(zip(names, values))
            if all(c.holds(env) for c in self.guard):
                yield env


class RuleTemplate(_Record):
    __slots__ = ("lhs", "rhs", "comprehension")

    def __init__(self, lhs, rhs, comprehension):
        self.lhs = lhs  # coefficient must be 1
        self.rhs = rhs  # None encodes "-> 0"
        self.comprehension = comprehension

    def render(self):
        rhs = "0" if self.rhs is None else self.rhs.render()
        out = "%s -> %s" % (self.lhs.render(), rhs)
        if self.comprehension is not None:
            out += " " + self.comprehension.render()
        return out


class GeneratorTemplate(_Record):
    __slots__ = ("element", "comprehension")

    def __init__(self, element, comprehension):
        self.element = element
        self.comprehension = comprehension

    def render(self):
        out = self.element.render()
        if self.comprehension is not None:
            out += " " + self.comprehension.render()
        return out


class RingStatement(_Record):
    __slots__ = ("name", "level", "rules")

    def __init__(self, name, level, rules):
        self.name = name
        self.level = level  # variables X[0..level]
        self.rules = rules  # of RuleTemplate

    def render(self):
        head = "ring %s = vars X[0..%d]" % (self.name, self.level)
        if not self.rules:
            return head
        return "%s rules { %s }" % (
            head, "; ".join(r.render() for r in self.rules))


class IdealStatement(_Record):
    __slots__ = ("name", "generators")

    def __init__(self, name, generators):
        self.name = name
        self.generators = generators  # of GeneratorTemplate

    def render(self):
        if not self.generators:
            return "ideal %s = < 0 >" % self.name
        return "ideal %s = < %s >" % (
            self.name, ", ".join(g.render() for g in self.generators))


class QueryStatement(_Record):
    __slots__ = ("kind", "arguments")

    def __init__(self, kind, arguments):
        self.kind = kind
        self.arguments = arguments  # of NameRef or ElementTemplate

    def render(self):
        args = "; ".join(a.render() for a in self.arguments)
        return "query %s(%s)" % (self.kind, args)


class NameRef(_Record):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def render(self):
        return self.name


class CheckStatement(_Record):
    __slots__ = ("acting", "relations")

    def __init__(self, acting, relations):
        self.acting = acting
        self.relations = relations

    def render(self):
        return "check fairness(%s; %s)" % (self.acting, self.relations)


class FamilyStatement(_Record):
    __slots__ = ("tag", "low", "high", "window")

    def __init__(self, tag, low, high, window):
        self.tag = tag
        self.low = low
        self.high = high
        self.window = window

    def render(self):
        return "family %s levels %d..%d window %d" % (
            self.tag, self.low, self.high, self.window)


class RunExampleStatement(_Record):
    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag

    def render(self):
        return "run example %s" % self.tag


class Script(_Record):
    __slots__ = ("statements",)

    def __init__(self, statements):
        self.statements = statements

    def render(self):
        return "".join(s.render() + "\n" for s in self.statements)


# ------------------------------------------------------------------ parser

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def error(self, expected):
        tok = self.current
        shown = tok.value if tok.kind != "end" else "end of input"
        raise ParseError("unexpected %s" % shown, tok.line, tok.column,
                         tuple(sorted(expected)))

    def accept(self, value=None, kind="punct"):
        tok = self.current
        if tok.kind == kind and (value is None or tok.value == value):
            self.pos += 1
            return tok
        return None

    def expect(self, value=None, kind="punct"):
        tok = self.accept(value, kind)
        if tok is None:
            self.error({value if value is not None else kind})
        return tok

    def expect_int(self):
        return int(self.expect(kind="int").value)

    def expect_ident(self, *names):
        tok = self.current
        if tok.kind != "ident" or (names and tok.value not in names):
            self.error(set(names) or {"identifier"})
        self.pos += 1
        return tok.value

    def at_ident(self, name):
        tok = self.current
        return tok.kind == "ident" and tok.value == name

    # ---- script

    def parse_script(self):
        statements = []
        while self.current.kind != "end":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self):
        tok = self.current
        if tok.kind != "ident":
            self.error({"ring", "ideal", "query", "check", "family", "run"})
        handlers = {
            "ring": self.parse_ring,
            "ideal": self.parse_ideal,
            "query": self.parse_query,
            "check": self.parse_check,
            "family": self.parse_family,
            "run": self.parse_run,
        }
        handler = handlers.get(tok.value)
        if handler is None:
            self.error(set(handlers))
        self.pos += 1
        return handler()

    def parse_ring(self):
        name = self.expect_ident()
        self.expect("=")
        self.expect_ident("vars")
        self.expect_ident("X")
        self.expect("[")
        low_tok = self.current
        low = self.expect_int()
        self.expect("..")
        high = self.expect_int()
        self.expect("]")
        if low != 0:
            raise ParseError("variable range must start at 0",
                             low_tok.line, low_tok.column, ("0",))
        rules = []
        if self.at_ident("rules"):
            self.pos += 1
            self.expect("{")
            while not self.accept("}"):
                rules.append(self.parse_rule())
                if not self.accept(";"):
                    self.expect("}")
                    break
        return RingStatement(name, high, tuple(rules))

    def parse_rule(self):
        lhs = self.parse_term(allow_coeff=False)
        self.expect("->")
        rhs = self.parse_term(allow_coeff=True, allow_sign=True)
        if rhs.coeff == 0:
            # -> 0, -> 0*X[1] and -> 0/1*X[1] all rewrite to zero.
            rhs = None
        comp = self.parse_comprehension_opt()
        return RuleTemplate(lhs, rhs, comp)

    def parse_ideal(self):
        tok = self.current
        name = self.expect_ident()
        if name == "X":
            # A query argument starting with X is read as an element.
            raise ParseError("X names the variables, not an ideal",
                             tok.line, tok.column)
        self.expect("=")
        self.expect("<")
        generators = []
        if not self.accept(">"):
            while True:
                element = self.parse_element()
                comp = self.parse_comprehension_opt()
                generators.append(GeneratorTemplate(element, comp))
                if self.accept(","):
                    continue
                self.expect(">")
                break
        generators = [g for g in generators if g.element.terms]
        return IdealStatement(name, tuple(generators))

    def parse_query(self):
        kind = self.expect_ident(*QUERY_SIGNATURES)
        self.expect("(")
        arguments = []
        for argument_kind in QUERY_SIGNATURES[kind]:
            if arguments:
                self.expect(";")
            arguments.append(self.parse_argument(argument_kind))
        self.expect(")")
        return QueryStatement(kind, tuple(arguments))

    def parse_argument(self, kind):
        tok = self.current
        if tok.kind == "ident" and tok.value != "X":
            if kind == "element":
                self.error({"element"})
            self.pos += 1
            return NameRef(tok.value)
        if kind == "ideal":
            self.error({"ideal name"})
        return self.parse_element()

    def parse_check(self):
        self.expect_ident("fairness")
        self.expect("(")
        acting = self.expect_ident()
        self.expect(";")
        relations = self.expect_ident()
        self.expect(")")
        return CheckStatement(acting, relations)

    def parse_family(self):
        tag = self.expect_ident()
        self.expect_ident("levels")
        low = self.expect_int()
        self.expect("..")
        high = self.expect_int()
        self.expect_ident("window")
        window = self.expect_int()
        return FamilyStatement(tag, low, high, window)

    def parse_run(self):
        self.expect_ident("example")
        tag = self.expect_ident()
        return RunExampleStatement(tag)

    # ---- templates

    def _comma_begins_binding(self):
        """Lookahead for ", ident (, ident)* in": distinguishes another
        loop binding from the next generator in an ideal's list."""
        tok = self.current
        if tok.kind != "punct" or tok.value != ",":
            return False
        i = self.pos + 1
        while True:
            if self.tokens[i].kind != "ident" or self.tokens[i].value == "in":
                return False
            i += 1
            after = self.tokens[i]
            if after.kind == "ident" and after.value == "in":
                return True
            if after.kind == "punct" and after.value == ",":
                i += 1
                continue
            return False

    def parse_comprehension_opt(self):
        if not self.at_ident("for"):
            return None
        self.pos += 1
        bindings = [self.parse_binding()]
        while self._comma_begins_binding():
            self.expect(",")
            bindings.append(self.parse_binding())
        guard = ()
        if self.at_ident("if"):
            self.pos += 1
            comparisons = [self.parse_comparison()]
            while self.at_ident("and"):
                self.pos += 1
                comparisons.append(self.parse_comparison())
            guard = tuple(comparisons)
        return Comprehension(tuple(bindings), guard)

    def parse_binding(self):
        names = [self.expect_ident()]
        while not self.at_ident("in") and self.accept(","):
            names.append(self.expect_ident())
        self.expect_ident("in")
        low = self.expect_int()
        self.expect("..")
        high = self.expect_int()
        return RangeBinding(tuple(names), low, high)

    def parse_comparison(self):
        lhs = self.parse_affine()
        tok = self.current
        if tok.kind != "punct" or tok.value not in (
                "==", "!=", "<", "<=", ">", ">="):
            self.error({"comparison operator"})
        self.pos += 1
        rhs = self.parse_affine()
        return Comparison(tok.value, lhs, rhs)

    def parse_affine(self):
        constant = 0
        coeffs = {}

        def add_piece(sign):
            nonlocal constant
            tok = self.current
            if tok.kind == "int":
                self.pos += 1
                value = int(tok.value)
                if self.accept("*"):
                    name = self.expect_ident()
                    coeffs[name] = coeffs.get(name, 0) + sign * value
                else:
                    constant += sign * value
            elif tok.kind == "ident":
                self.pos += 1
                coeffs[tok.value] = coeffs.get(tok.value, 0) + sign
            else:
                self.error({"integer", "index variable"})

        sign = -1 if self.accept("-") else 1
        add_piece(sign)
        while True:
            if self.accept("+"):
                add_piece(1)
            elif self.accept("-"):
                add_piece(-1)
            else:
                break
        pairs = tuple(sorted((n, c) for n, c in coeffs.items() if c))
        return Affine(constant, pairs)

    def parse_element(self):
        terms = [self.parse_term(allow_coeff=True, allow_sign=True)]
        while True:
            if self.accept("+"):
                terms.append(self.parse_term(allow_coeff=True,
                                             allow_sign=True))
            elif self.accept("-"):
                term = self.parse_term(allow_coeff=True, allow_sign=True)
                terms.append(TermTemplate(-term.coeff, term.factors))
            else:
                break
        terms = [t for t in terms if t.coeff != 0]
        return ElementTemplate(tuple(terms))

    def parse_term(self, allow_coeff, allow_sign=False):
        sign = 1
        if allow_sign and self.accept("-"):
            sign = -1
        coeff = Fraction(sign)
        factors = []
        saw_coeff = False
        if self.current.kind == "int":
            if not allow_coeff:
                self.error({"X"})
            value = Fraction(int(self.expect(kind="int").value))
            if self.accept("/"):
                tok = self.expect(kind="int")
                if int(tok.value) == 0:
                    raise ParseError("zero denominator", tok.line, tok.column)
                value /= int(tok.value)
            coeff *= value
            saw_coeff = True
            if not self.accept("*"):
                return TermTemplate(coeff, ())
        while True:
            factors.append(self.parse_factor())
            if not self.accept("*"):
                break
            if self.current.kind == "int":
                if not allow_coeff:
                    self.error({"X"})
                coeff *= int(self.expect(kind="int").value)
                if not self.accept("*"):
                    break
        if not factors and not saw_coeff:
            self.error({"X", "integer"})
        return TermTemplate(coeff, tuple(factors))

    def parse_factor(self):
        self.expect_ident("X")
        self.expect("[")
        index = self.parse_affine()
        self.expect("]")
        exponent = _affine_const(1)
        if self.accept("^"):
            if self.current.kind == "int":
                exponent = _affine_const(self.expect_int())
            else:
                self.expect("(")
                exponent = self.parse_affine()
                self.expect(")")
        return VarFactor(index, exponent)


def parse(source):
    return _Parser(tokenize(source)).parse_script()


# --------------------------------------------------------------- expansion

def _environments(comp):
    if comp is None:
        return [{}]
    return list(comp.environments())


def _build_monomial(term, env, num_vars, where):
    m = Monomial.one()
    for factor in term.factors:
        index = factor.index.evaluate(env)
        exponent = factor.exponent.evaluate(env)
        if index < 0 or index >= num_vars:
            raise PatternError(
                "index %d outside declared variables in %s" % (index, where))
        if exponent < 0:
            raise PatternError(
                "negative exponent %d in %s" % (exponent, where))
        if exponent:
            m = m.mul(Monomial.variable(index, exponent))
    return m


def expand_ring(stmt):
    """Instantiate a ring statement into a presentation."""
    num_vars = stmt.level + 1
    rules = []
    seen = set()
    for template in stmt.rules:
        where = "rule %s" % template.render()
        for env in _environments(template.comprehension):
            lhs = _build_monomial(template.lhs, env, num_vars, where)
            if lhs.is_one:
                raise PatternError("rule lhs must not be 1 in %s" % where)
            if template.rhs is None:
                rhs = None
            else:
                rm = _build_monomial(template.rhs, env, num_vars, where)
                rhs = (template.rhs.coeff, rm)
                if rm.degree >= lhs.degree:
                    raise PatternError(
                        "rule rhs must drop degree in %s" % where)
            key = (lhs, rhs)
            if key in seen:
                continue
            seen.add(key)
            rules.append(RewriteRule(lhs, rhs))
    return RingPresentation(num_vars, rules)


def expand_element(template, ring, env=None, where="element"):
    env = env or {}
    return Element.from_terms(ring, [
        (_build_monomial(term, env, ring.num_vars, where), term.coeff)
        for term in template.terms])


def expand_ideal(stmt, ring):
    """Instantiate an ideal statement against a ring."""
    elements = []
    for template in stmt.generators:
        where = "generator %s of ideal %s" % (template.render(), stmt.name)
        for env in _environments(template.comprehension):
            elements.append(
                expand_element(template.element, ring, env, where))
    return IdealHandle(ring, elements)


# ---------------------------------------------------------------- printing

@lru_cache(maxsize=None)
def _var_factor(var, exp):
    return VarFactor(_affine_const(var), _affine_const(exp))


def _term(coeff, monomial):
    return TermTemplate(coeff, tuple(
        _var_factor(v, e) for v, e in monomial.pairs))


def ring_statement(ring, name):
    """The statement defining ``ring``, one rule per rewrite rule."""
    rules = tuple(
        RuleTemplate(_term(1, rule.lhs),
                     None if rule.rhs is None else _term(*rule.rhs), None)
        for rule in ring.rules)
    return RingStatement(name, ring.num_vars - 1, rules)


def ideal_statement(ideal, name):
    """The statement defining ``ideal`` by its reduced generators."""
    return IdealStatement(name, tuple(
        GeneratorTemplate(ElementTemplate(tuple(
            _term(g.terms[m], m) for m in g.monomials())), None)
        for g in ideal.generators))
