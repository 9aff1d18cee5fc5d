"""Script language for declaring rings, elements, modules and checks.

One `.ezd` file is a sequence of statements:

    ring R = GF(101)[x,y] / (x*y, x^2 - y^2);
    elem ex = x in R;
    module M = modx(free(R, 1), ex);
    check ezd(ex, ey, free(R, 1)) bound 10;

'#' starts a line comment.  Parsing is strict with line/column errors,
and pretty_print(parse(text)) reparses to an equal Script.  An element's
polynomial is parsed against the variables of the ring it names, which a
statement before it must declare, so a bad element is a parse error.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

from .algebra import Algebra, Element
from .groebner import BudgetExceeded, QuotientPresentation, QuotientTooLargeError
from .linalg import Field, prime_field_error
from .module import (
    Module,
    annihilator_submodule,
    dual_k,
    free_module,
    hom_module,
    is_isomorphic,
    Iso,
    NotIso,
    regular_module,
    scale_quotient,
    tensor_module,
)
from .poly import DEGREVLEX, LEX, PolyRing
from .record import Frozen, Record, _set
from .resolution import DEFAULT_RESOLUTION_BUDGET
from .classes import (
    DEFAULT_BOUND,
    CertifiedAll,
    HoldsUpTo,
    NotSemidualizingError,
    in_A_C,
    in_B_C,
    in_G_C,
    is_ezd_pair,
    is_semidualizing,
)

__all__ = [
    "DslError",
    "Script",
    "RingDecl",
    "ElemDecl",
    "ModuleDecl",
    "CheckStmt",
    "ModuleExpr",
    "parse_script",
    "parse_field",
    "parse_ring",
    "parse_module_expr",
    "pretty_print",
    "CheckResult",
    "run_script",
]

# the checks, with the arguments each takes
CHECK_ARITY = {
    "ezd": 3,
    "semidualizing": 1,
    "in_gc": 2,
    "in_ac": 2,
    "in_bc": 2,
    "isomorphic": 2,
    "not_isomorphic": 2,
    "dim": 2,
}

MODULE_OPS = {
    "free": 2,  # free(R, n)
    "quot": -2,  # quot(M, e1, ..., ek): quotient by the elements' images
    "hom": 2,
    "tensor": 2,
    "dualk": 1,
    "ann": 2,  # ann(M, e): annihilator submodule of e
    "modx": 2,  # modx(M, e): M / e.M
    "omega": 1,  # omega(R): dual_k of the regular module
}


class DslError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# syntax tree
#
# ``pos`` fields hold the (line, column) that errors found while running a
# script point at; they take no part in equality or the repr, so a
# pretty-printed script still reparses to an equal tree.


class RingDecl(Frozen):
    # p: None means QQ; order: "degrevlex" | "lex"; generators: poly
    # term-tuples; pos: of the declaration's first token
    __slots__ = ("name", "p", "variables", "order", "generators", "pos")
    _fields = __slots__[:-1]
    _defaults = {"pos": (0, 0)}


class ElemDecl(Frozen):
    # poly: a term tuple over ``variables``, those of the ring as declared
    # before the element
    __slots__ = ("name", "poly", "ring", "variables")


class ModuleExpr(Frozen):
    # op: one of MODULE_OPS or "name"; args: nested ModuleExpr, str names,
    # or ints
    __slots__ = ("op", "args", "pos")
    _fields = __slots__[:-1]
    _defaults = {"pos": (0, 0)}


class ModuleDecl(Frozen):
    __slots__ = ("name", "expr")


class CheckStmt(Frozen):
    # args: ModuleExpr / str / int per check
    __slots__ = ("name", "args", "bound", "pos")
    _fields = __slots__[:-1]
    _defaults = {"pos": (0, 0)}


class Script(Frozen):
    __slots__ = ("statements",)


# polynomials are stored as sorted tuples of (monomial, coefficient) with
# integer coefficients, monomials as exponent tuples over the ring variables


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = ("(", ")", "[", "]", ",", ";", "=", "/", "^", "*", "+", "-")


class _Token(Frozen):
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        """``kind``: "name" | "int" | "sym" | "eof"."""
        _set(self, "kind", kind)
        _set(self, "value", value)
        _set(self, "line", line)
        _set(self, "col", col)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdecimal():
            # decimal digits in any script, exactly what int() reads
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(_Token("int", text[start:i], line, col))
            col += i - start
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, col))
            col += i - start
        elif ch in _SYMBOLS:
            tokens.append(_Token("sym", ch, line, col))
            i += 1
            col += 1
        else:
            raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0
        self.ring_vars: dict = {}  # the variables of each ring read so far

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise DslError(message, tok.line, tok.col)

    def expect(self, kind: str, value: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value or tok.kind
            self.error(f"expected {want!r}, found {got!r}")
        return self.next()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[_Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def integer(self) -> int:
        """The integer literal that comes next: the one rule that reads a
        number, so a literal too long for ``int()`` is an error at it."""
        tok = self.expect("int")
        try:
            return int(tok.value)
        except ValueError:
            self.error(f"integer literal of {len(tok.value)} digits is too long", tok)

    # -- grammar ------------------------------------------------------
    def script(self) -> Script:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.statement())
        return Script(tuple(stmts))

    def statement(self):
        tok = self.peek()
        if tok.kind != "name":
            self.error("expected a statement keyword")
        if tok.value == "ring":
            return self.ring_decl()
        if tok.value == "elem":
            return self.elem_decl()
        if tok.value == "module":
            return self.module_decl()
        if tok.value == "check":
            return self.check_stmt()
        self.error(f"unknown statement keyword {tok.value!r}")

    def ring_decl(self) -> RingDecl:
        start = self.expect("name", "ring")
        name = self.expect("name").value
        self.expect("sym", "=")
        decl = self.ring_body(name, start)
        self.expect("sym", ";")
        self.ring_vars[name] = decl.variables
        return decl

    def ring_body(self, name: str, start: Optional[_Token] = None) -> RingDecl:
        """``field[vars] [order o] / (gens)``, the part of a ring
        declaration after its ``=``; ``start`` is the declaration's first
        token, by default the body's own."""
        if start is None:
            start = self.peek()
        p = self.field_spec()
        self.expect("sym", "[")
        variables = []
        while not variables or self.accept("sym", ","):
            tok = self.expect("name")
            if tok.value in variables:
                self.error(f"duplicate variable {tok.value!r}", tok)
            variables.append(tok.value)
        self.expect("sym", "]")
        order = "degrevlex"
        if self.peek().kind == "name" and self.peek().value == "order":
            self.next()
            tok = self.expect("name")
            if tok.value not in ("degrevlex", "lex"):
                self.error(f"unknown monomial order {tok.value!r}", tok)
            order = tok.value
        self.expect("sym", "/")
        self.expect("sym", "(")
        gens = []
        if not self.accept("sym", ")"):
            gens.append(self.polynomial(variables))
            while self.accept("sym", ","):
                gens.append(self.polynomial(variables))
            self.expect("sym", ")")
        return RingDecl(
            name, p, tuple(variables), order, tuple(gens), (start.line, start.col)
        )

    def field_spec(self) -> Optional[int]:
        tok = self.expect("name")
        if tok.value == "QQ":
            return None
        if tok.value == "GF":
            self.expect("sym", "(")
            ptok = self.peek()
            p = self.integer()
            self.expect("sym", ")")
            err = prime_field_error(p)
            if err:
                self.error(err, ptok)
            return p
        self.error(f"expected GF(p) or QQ, found {tok.value!r}", tok)

    def polynomial(self, variables) -> tuple:
        """Sum of signed terms; returns canonical sorted ((monomial, coeff), ...)."""
        coeffs: dict = {}
        sign = 1
        if self.accept("sym", "-"):
            sign = -1
        while True:
            mono, c = self.term(variables)
            coeffs[mono] = coeffs.get(mono, 0) + sign * c
            if self.accept("sym", "+"):
                sign = 1
            elif self.accept("sym", "-"):
                sign = -1
            else:
                break
        items = [(m, c) for m, c in coeffs.items() if c != 0]
        items.sort(key=lambda mc: (sum(mc[0]), mc[0]), reverse=True)
        return tuple(items)

    def term(self, variables):
        """INT? ("*"? var ("^" INT)?)* as one monomial with coefficient."""
        coeff = 1
        expo = [0] * len(variables)
        saw_factor = False
        tok = self.peek()
        if tok.kind == "int":
            coeff = self.integer()
            saw_factor = True
            if not self.accept("sym", "*"):
                return tuple(expo), coeff
        while True:
            tok = self.peek()
            if tok.kind != "name":
                break
            if tok.value not in variables:
                self.error(f"unknown variable {tok.value!r}", tok)
            self.next()
            e = 1
            if self.accept("sym", "^"):
                e = self.integer()
            expo[variables.index(tok.value)] += e
            saw_factor = True
            if not self.accept("sym", "*"):
                break
        if not saw_factor:
            self.error("expected a term")
        return tuple(expo), coeff

    def elem_decl(self) -> ElemDecl:
        """``elem NAME = POLY in RING;``: the polynomial ends at the first
        ``in`` outside parentheses and is read against the variables of
        RING, which an earlier statement declares."""
        self.expect("name", "elem")
        name = self.expect("name").value
        self.expect("sym", "=")
        start = self.pos
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.error("unterminated elem declaration")
            if tok.kind == "name" and tok.value == "in" and depth == 0:
                break
            if tok.kind == "sym" and tok.value == "(":
                depth += 1
            if tok.kind == "sym" and tok.value == ")":
                depth -= 1
            self.next()
        stop = self.pos
        self.expect("name", "in")
        ring = self.expect("name")
        self.expect("sym", ";")
        variables = self.ring_vars.get(ring.value)
        if variables is None:
            self.error(f"undefined ring {ring.value!r} in elem {name!r}", ring)
        # the polynomial's tokens, ended by an eof where the ring name stands
        poly = _Parser(self.tokens[start:stop] + [_Token("eof", "", ring.line, ring.col)])
        terms = poly.polynomial(variables)
        if poly.peek().kind != "eof":
            poly.error("trailing tokens in element polynomial")
        return ElemDecl(name, terms, ring.value, variables)

    def module_decl(self) -> ModuleDecl:
        self.expect("name", "module")
        name = self.expect("name").value
        self.expect("sym", "=")
        expr = self.module_expr()
        self.expect("sym", ";")
        return ModuleDecl(name, expr)

    def module_expr(self) -> ModuleExpr:
        tok = self.expect("name")
        if tok.value not in MODULE_OPS:
            if self.peek().kind == "sym" and self.peek().value == "(":
                self.error(f"unknown module constructor {tok.value!r}", tok)
            return ModuleExpr("name", (tok.value,), (tok.line, tok.col))
        op = tok.value
        args = self.arguments()
        arity = MODULE_OPS[op]
        if arity >= 0 and len(args) != arity:
            self.error(f"{op} expects {arity} argument(s), got {len(args)}", tok)
        if arity < 0 and len(args) < -arity:
            self.error(f"{op} expects at least {-arity} argument(s)", tok)
        return ModuleExpr(op, tuple(args), (tok.line, tok.col))

    def arguments(self) -> list:
        """``( arg, ... )``, the argument list of a constructor or a check."""
        self.expect("sym", "(")
        args = []
        if not self.accept("sym", ")"):
            args.append(self.module_arg())
            while self.accept("sym", ","):
                args.append(self.module_arg())
            self.expect("sym", ")")
        return args

    def module_arg(self):
        tok = self.peek()
        if tok.kind == "int":
            return self.integer()
        return self.module_expr()

    def check_stmt(self) -> CheckStmt:
        self.expect("name", "check")
        tok = self.expect("name")
        if tok.value not in CHECK_ARITY:
            self.error(f"unknown check {tok.value!r}", tok)
        name = tok.value
        args = self.arguments()
        if len(args) != CHECK_ARITY[name]:
            want = CHECK_ARITY[name]
            self.error(f"{name} expects {want} argument(s), got {len(args)}", tok)
        bound = None
        if self.peek().kind == "name" and self.peek().value == "bound":
            self.next()
            btok = self.peek()
            bound = self.integer()
            err = bound_error(bound)
            if err:
                self.error(err, btok)
        self.expect("sym", ";")
        return CheckStmt(name, tuple(args), bound, (tok.line, tok.col))


def bound_error(bound: int) -> Optional[str]:
    """Why a degree bound cannot be used, or None if it can.  A table is as
    long as its bound, and a resolution that does not terminate grows by at
    least one dimension a degree, so it meets ``DEFAULT_RESOLUTION_BUDGET``
    before that degree anyway."""
    if bound > DEFAULT_RESOLUTION_BUDGET:
        return f"bound {bound} is above {DEFAULT_RESOLUTION_BUDGET}"
    return None


def parse_script(text: str) -> Script:
    return _Parser(_tokenize(text)).script()


def read_script(path) -> str:
    """The text of the script file at ``path``, read as UTF-8.  A byte that
    is not UTF-8 is a ``DslError`` at the line and column where it stands."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        line, col = head.count("\n") + 1, len(head) - head.rfind("\n")
        raise DslError(f"byte {data[exc.start]:#04x} is not UTF-8", line, col) from None


def _parse_whole(text: str, rule):
    parser = _Parser(_tokenize(text))
    out = rule(parser)
    parser.expect("eof")
    return out


def parse_field(text: str) -> Optional[int]:
    """The p of ``GF(p)``, or None for ``QQ``; the text is nothing else."""
    return _parse_whole(text, _Parser.field_spec)


def parse_ring(text: str, name: str = "A") -> RingDecl:
    """The ring ``name`` declared by ``text``, e.g. ``GF(101)[x]/(x^2)``."""
    return _parse_whole(text, lambda parser: parser.ring_body(name))


def parse_module_expr(text: str) -> ModuleExpr:
    """One module expression that makes up the whole of ``text``."""
    return _parse_whole(text, _Parser.module_expr)


# ---------------------------------------------------------------------------
# pretty printer


def _format_poly(terms, variables) -> str:
    if not terms:
        return "0"
    parts = []
    for mono, coeff in terms:
        factors = []
        for v, e in zip(variables, mono):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag}*{body}"
        if not parts:
            parts.append(chunk if coeff > 0 else f"-{chunk}")
        else:
            parts.append(f"+ {chunk}" if coeff > 0 else f"- {chunk}")
    return " ".join(parts)


def _format_module_expr(expr) -> str:
    if isinstance(expr, int):
        return str(expr)
    if expr.op == "name":
        return expr.args[0]
    inner = ", ".join(_format_module_expr(a) for a in expr.args)
    return f"{expr.op}({inner})"


def pretty_print(script: Script) -> str:
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, RingDecl):
            fld = "QQ" if stmt.p is None else f"GF({stmt.p})"
            order = "" if stmt.order == "degrevlex" else f" order {stmt.order}"
            gens = ", ".join(_format_poly(g, stmt.variables) for g in stmt.generators)
            lines.append(
                f"ring {stmt.name} = {fld}[{','.join(stmt.variables)}]{order} / ({gens});"
            )
        elif isinstance(stmt, ElemDecl):
            poly = _format_poly(stmt.poly, stmt.variables)
            lines.append(f"elem {stmt.name} = {poly} in {stmt.ring};")
        elif isinstance(stmt, ModuleDecl):
            lines.append(f"module {stmt.name} = {_format_module_expr(stmt.expr)};")
        elif isinstance(stmt, CheckStmt):
            args = ", ".join(_format_module_expr(a) for a in stmt.args)
            tail = "" if stmt.bound is None else f" bound {stmt.bound}"
            lines.append(f"check {stmt.name}({args}){tail};")
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interpreter


class CheckResult(Record):
    # status: "pass" | "fail" | "inconclusive" | "budget"
    __slots__ = ("id", "status", "witness", "tables", "millis")


class _Env:
    def __init__(self):
        self.rings: dict = {}
        self.elems: dict = {}
        self.modules: dict = {}


def _build_ring(decl: RingDecl) -> Algebra:
    field = Field(decl.p)
    order = DEGREVLEX if decl.order == "degrevlex" else LEX
    ring = PolyRing(field, list(decl.variables), order)
    gens = [ring.poly(dict(g)) for g in decl.generators]
    try:
        pres = QuotientPresentation(ring, gens)
    except QuotientTooLargeError as exc:
        raise DslError(str(exc), *decl.pos) from None
    return Algebra(pres)


def _ref(table: dict, kind: str, arg, at):
    """The ring or element that the name argument ``arg`` refers to; ``at``
    is the enclosing expression or check, whose position an argument that
    is not a name is reported at."""
    if not (isinstance(arg, ModuleExpr) and arg.op == "name"):
        raise DslError(f"expected a {kind} name", *at.pos)
    name = arg.args[0]
    if name not in table:
        raise DslError(f"undefined {kind} {name!r}", *arg.pos)
    return table[name]


def _resolve_elem(env: _Env, decl: ElemDecl) -> Element:
    algebra = env.rings[decl.ring]
    return algebra.element_from_poly(algebra.ring.poly(dict(decl.poly)))


def _one_ring(node, algebras):
    """Raise at ``node``, an expression or a check, unless its arguments'
    ``algebras`` are all the same ring."""
    if any(a != algebras[0] for a in algebras[1:]):
        what = node.op if isinstance(node, ModuleExpr) else node.name
        raise DslError(f"{what} mixes arguments over different rings", *node.pos)


def _eval_module(env: _Env, expr, at) -> Module:
    """The module ``expr`` denotes; ``at`` encloses it (see ``_ref``)."""
    if isinstance(expr, int):
        raise DslError("expected a module expression, found an integer", *at.pos)
    op, args = expr.op, expr.args
    if op == "name":
        name = args[0]
        if name in env.modules:
            return env.modules[name]
        if name in env.rings:
            return regular_module(env.rings[name], label=name)
        raise DslError(f"undefined module {name!r}", *expr.pos)
    if op == "free":
        algebra = _ref(env.rings, "ring", args[0], expr)
        if not isinstance(args[1], int):
            raise DslError("free expects an integer rank", *expr.pos)
        if (dim := args[1] * algebra.dim) > DEFAULT_RESOLUTION_BUDGET:
            raise DslError(f"free module of dimension {dim} is above "
                           f"{DEFAULT_RESOLUTION_BUDGET}", *expr.pos)
        return free_module(algebra, args[1])
    if op == "omega":
        algebra = _ref(env.rings, "ring", args[0], expr)
        return dual_k(regular_module(algebra), label=f"omega({args[0].args[0]})")
    m = _eval_module(env, args[0], expr)
    if op == "dualk":
        return dual_k(m)
    if op in ("hom", "tensor"):
        n = _eval_module(env, args[1], expr)
        _one_ring(expr, [m.algebra, n.algebra])
        try:
            return hom_module(m, n) if op == "hom" else tensor_module(m, n)
        except BudgetExceeded as exc:
            raise BudgetExceeded("line {}, column {}: {}".format(*expr.pos, exc)) from None
    if op in ("ann", "modx", "quot"):
        elems = [_ref(env.elems, "element", a, expr) for a in args[1:]]
        _one_ring(expr, [m.algebra] + [e.parent for e in elems])
        if op == "ann":
            return annihilator_submodule(m, elems[0])[0]
        if op == "modx":
            return scale_quotient(m, elems[0])[0]
        out = m
        for e in elems:
            out = scale_quotient(out, e)[0]
        return out
    raise ValueError(f"unknown module constructor {op!r}")


def table_json(t) -> dict:
    """The report form of an Ext/Tor table."""
    return {"dims": list(t.dims), "bound": t.bound, "certified": t.certified_all_beyond}


def verdict_entry(rep) -> tuple:
    """(status, witness, tables) of a ``ClassMembershipReport``, the one
    report form of a semidualizing or class verdict."""
    tables = {name: table_json(t) for name, t in rep.tables.items()}
    if isinstance(rep.verdict, CertifiedAll):
        return "pass", "certified", tables
    if isinstance(rep.verdict, HoldsUpTo):
        return "pass", f"up to bound {rep.verdict.bound}", tables
    return "fail", rep.verdict.witness, tables


# the exceptions that stop a check short of a verdict
STOPS = (BudgetExceeded, NotSemidualizingError)


def stop_status(exc: Exception) -> tuple:
    """(status, witness) of a check stopped by one of ``STOPS``."""
    if isinstance(exc, NotSemidualizingError):
        return "fail", f"C is not semidualizing: {exc}"
    return "budget", str(exc)


def result(label: str, compute) -> CheckResult:
    """The report entry ``label`` of ``compute()``, which returns (status,
    witness, tables); a stop in ``STOPS`` becomes its ``stop_status``, and
    ``millis`` is the wall time either way."""
    start = time.monotonic()
    try:
        status, witness, tables = compute()
    except STOPS as exc:
        (status, witness), tables = stop_status(exc), None
    return CheckResult(label, status, witness, tables, int((time.monotonic() - start) * 1000))


def _run_check(env: _Env, stmt: CheckStmt, default_bound: int, seed: int) -> tuple:
    """(status, witness, tables) of one check."""
    bound = stmt.bound if stmt.bound is not None else default_bound
    if stmt.name == "ezd":
        x = _ref(env.elems, "element", stmt.args[0], stmt)
        y = _ref(env.elems, "element", stmt.args[1], stmt)
        m = _eval_module(env, stmt.args[2], stmt)
        _one_ring(stmt, [m.algebra, x.parent, y.parent])
        rep = is_ezd_pair(x, y, m)
        if rep.holds:
            return "pass", None, None
        return "fail", ", ".join(rep.failing_checks()), None
    if stmt.name == "semidualizing":
        return verdict_entry(is_semidualizing(_eval_module(env, stmt.args[0], stmt), bound))
    if stmt.name in ("in_gc", "in_ac", "in_bc"):
        m = _eval_module(env, stmt.args[0], stmt)
        c = _eval_module(env, stmt.args[1], stmt)
        _one_ring(stmt, [m.algebra, c.algebra])
        fn = {"in_gc": in_G_C, "in_ac": in_A_C, "in_bc": in_B_C}[stmt.name]
        return verdict_entry(fn(m, c, bound))
    if stmt.name in ("isomorphic", "not_isomorphic"):
        m = _eval_module(env, stmt.args[0], stmt)
        n = _eval_module(env, stmt.args[1], stmt)
        _one_ring(stmt, [m.algebra, n.algebra])
        verdict = is_isomorphic(m, n, seed=seed)
        if isinstance(verdict, Iso):
            return ("pass" if stmt.name == "isomorphic" else "fail"), None, None
        if isinstance(verdict, NotIso):
            return ("fail" if stmt.name == "isomorphic" else "pass"), verdict.reason, None
        return "inconclusive", "isomorphism search exhausted", None
    if stmt.name == "dim":
        m = _eval_module(env, stmt.args[0], stmt)
        expected = stmt.args[1]
        if not isinstance(expected, int):
            raise DslError("dim expects an integer dimension", *stmt.pos)
        if m.dim == expected:
            return "pass", None, None
        return "fail", f"dim = {m.dim}, expected {expected}", None
    raise ValueError(f"unknown check {stmt.name!r}")


def run_script(
    script: Script, default_bound: int = DEFAULT_BOUND, seed: int = 0
):
    """Execute a script; returns (environment, list of CheckResult)."""
    env = _Env()
    results = []
    for stmt in script.statements:
        if isinstance(stmt, RingDecl):
            env.rings[stmt.name] = _build_ring(stmt)
        elif isinstance(stmt, ElemDecl):
            env.elems[stmt.name] = _resolve_elem(env, stmt)
        elif isinstance(stmt, ModuleDecl):
            m = _eval_module(env, stmt.expr, stmt.expr)
            # `module N = M;` binds N to M's module, which keeps M's label
            if all(m is not other for other in env.modules.values()):
                m.label = stmt.name
            env.modules[stmt.name] = m
        elif isinstance(stmt, CheckStmt):
            label = f"{stmt.name}({', '.join(_format_module_expr(a) for a in stmt.args)})"
            results.append(result(label, lambda: _run_check(env, stmt, default_bound, seed)))
    return env, results
