"""Exact multivariate polynomial algebra, Lie derivatives, and generating-
series coefficients of state-space models.

State-space data is polynomial throughout: readouts and vector-field
components are :class:`MultiPoly` values with rational coefficients, which
keeps iterated Lie differentiation exact.  Two model flavors are supported:

* :class:`AnalyticModel` -- drift field g0, noise fields g1..gm, readout h;
* :class:`BilinearModel` -- square matrices A0..Am and a linear readout row C.

The coefficient of a word (i1,...,ik) in the model's generating series is the
iterated Lie derivative of the readout, innermost letter first (each appended
letter applies its Lie derivative outermost), evaluated at the initial state.
For bilinear models this is C * A_{i1} * ... * A_{ik} * x0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

import numpy as np

from .errors import AlphabetError, MonomialBudgetError, ParseError
from .exactla import over_common_denominator
from .fps import RATIONAL, Series, read_ascii, split_lines

Exponents = tuple[int, ...]

DEFAULT_TERM_BUDGET = 10**6

# Largest exponent the polynomial parser expands.  p^e is built by e
# multiplications, so an unbounded e lets one short line stall a model read.
MAX_EXPONENT = 16

# Largest number of terms a product may expand to in the polynomial parser,
# checked while it expands: (1+x1+...+x6)^16 would have 74 613 terms.
MAX_TERMS = 2000


class MultiPoly:
    """Polynomial in ``num_vars`` variables with rational coefficients.

    Terms map an exponent multi-index (one entry per variable) to a nonzero
    Fraction; the zero polynomial has no terms.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        self.num_vars = num_vars
        clean: dict[Exponents, Fraction] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent {exps} does not have {num_vars} entries")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def zero(cls, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {})

    @classmethod
    def const(cls, num_vars: int, value) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: Fraction(value)})

    @classmethod
    def var(cls, num_vars: int, index: int) -> "MultiPoly":
        """The coordinate polynomial x_index (1-based)."""
        if not 1 <= index <= num_vars:
            raise ValueError(f"variable index {index} outside 1..{num_vars}")
        exps = [0] * num_vars
        exps[index - 1] = 1
        return cls(num_vars, {tuple(exps): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.num_vars, out)

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.num_vars, {e: c * other for e, c in self.terms.items()})
        return MultiPoly(self.num_vars, _product_terms((self, self._coerce(other)), self.num_vars))

    __rmul__ = __mul__

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("mixing polynomials with different variable counts")
            return other
        return MultiPoly.const(self.num_vars, other)

    def partial(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.num_vars:
            raise ValueError(f"variable index {index} outside 1..{self.num_vars}")
        j = index - 1
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            de = list(e)
            de[j] -= 1
            out[tuple(de)] = c * e[j]
        return MultiPoly(self.num_vars, out)

    def __repr__(self):
        return f"MultiPoly({poly_to_string(self)!r})"


def _product_terms(factors, num_vars: int, limit: float = float("inf")):
    """Terms of the product of the factors, or None once a partial product
    passes ``limit`` terms.  Each factor is scaled to integers over one
    common denominator, so Fractions are formed only at the end."""
    out: dict[Exponents, int] = {(0,) * num_vars: 1}
    den = 1
    for q in factors:
        q_num, q_den = over_common_denominator(q.terms.values())
        q_items = list(zip(q.terms, q_num))
        nxt: dict[Exponents, int] = {}
        for e1, a in out.items():
            for e2, b in q_items:
                e = tuple(map(add, e1, e2))
                nxt[e] = nxt.get(e, 0) + a * b
            if len(nxt) > limit:
                return None
        out = {e: v for e, v in nxt.items() if v}
        den *= q_den
    return {e: Fraction(v, den) for e, v in out.items()}


def poly_eval(p: MultiPoly, x):
    """Evaluate p at the point x (length num_vars).

    Rational inputs give an exact Fraction; float inputs give a float.
    """
    if len(x) != p.num_vars:
        raise ValueError(f"point has {len(x)} coordinates, polynomial expects {p.num_vars}")
    use_float = any(isinstance(v, float) for v in x)
    total = 0.0 if use_float else Fraction(0)
    for exps, c in p.terms.items():
        v = float(c) if use_float else c
        for xi, e in zip(x, exps):
            if e:
                v *= xi**e
        total += v
    return total


def compile_float(polys):
    """Compile a polynomial, or k polynomials in the same variables, into a
    numpy evaluator of points x (..., num_vars) giving (...) or (..., k).

    Each monomial is one row of an exponent matrix E (terms, num_vars) and
    of a coefficient matrix C (terms, k); an evaluation is prod(x ** E) @ C.
    """
    single = isinstance(polys, MultiPoly)
    polys = [polys] if single else list(polys)
    num_vars = polys[0].num_vars
    monomials = sorted({e for p in polys for e in p.terms})
    row = {e: t for t, e in enumerate(monomials)}
    coef = np.zeros((len(monomials), len(polys)))
    for k, p in enumerate(polys):
        for e, c in p.terms.items():
            coef[row[e], k] = float(c)
    expo = np.array(monomials, dtype=float).reshape(len(monomials), num_vars)

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.multiply.reduce(x[..., None, :] ** expo, axis=-1) @ coef
        return out[..., 0] if single else out

    return ev


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field on R^n with polynomial components."""

    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("vector field needs at least one component")
        n = self.components[0].num_vars
        if any(c.num_vars != n for c in self.components):
            raise ValueError("all components must share num_vars")
        if len(self.components) != n:
            raise ValueError(
                f"field has {len(self.components)} components but acts on R^{n}"
            )

    @property
    def n(self) -> int:
        return len(self.components)


def lie_derivative(g: PolyVectorField, phi: MultiPoly) -> MultiPoly:
    """Lie derivative of phi along g: sum_j (d phi / d x_j) * g_j."""
    if phi.num_vars != g.n:
        raise ValueError("vector field and polynomial act on different spaces")
    out = MultiPoly.zero(phi.num_vars)
    for j in range(1, g.n + 1):
        dphi = phi.partial(j)
        if not dphi.is_zero():
            out = out + dphi * g.components[j - 1]
    return out


@dataclass(frozen=True)
class AnalyticModel:
    """State-space model with polynomial fields and readout.

    ``fields[0]`` is the drift, ``fields[1..m]`` the noise directions; the
    output process is the readout evaluated along the state.
    """

    n: int
    m: int
    x0: tuple[Fraction, ...]
    fields: tuple[PolyVectorField, ...]
    readout: MultiPoly

    def __post_init__(self):
        if self.m < 1:
            raise AlphabetError(f"need m >= 1 noise channels, got {self.m}")
        if len(self.x0) != self.n:
            raise ValueError("x0 dimension mismatch")
        if len(self.fields) != self.m + 1:
            raise ValueError(f"expected {self.m + 1} vector fields, got {len(self.fields)}")
        if any(f.n != self.n for f in self.fields):
            raise ValueError("vector field dimension mismatch")
        if self.readout.num_vars != self.n:
            raise ValueError("readout dimension mismatch")
        object.__setattr__(self, "x0", tuple(Fraction(c) for c in self.x0))


@dataclass(frozen=True)
class BilinearModel:
    """Bilinear state-space model: matrices A0..Am and a linear readout row.

    The generating-series coefficient of the word (i1,...,ik) is
    C * A_{i1} * ... * A_{ik} * x0.
    """

    n: int
    m: int
    x0: tuple[Fraction, ...]
    mats: tuple[tuple[tuple[Fraction, ...], ...], ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        if self.m < 1:
            raise AlphabetError(f"need m >= 1 noise channels, got {self.m}")
        if len(self.x0) != self.n or len(self.c) != self.n:
            raise ValueError("x0 / C dimension mismatch")
        if len(self.mats) != self.m + 1:
            raise ValueError(f"expected {self.m + 1} matrices, got {len(self.mats)}")
        mats = tuple(
            tuple(tuple(Fraction(v) for v in row) for row in a) for a in self.mats
        )
        for a in mats:
            if len(a) != self.n or any(len(row) != self.n for row in a):
                raise ValueError("matrix shape mismatch")
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "x0", tuple(Fraction(v) for v in self.x0))
        object.__setattr__(self, "c", tuple(Fraction(v) for v in self.c))


def linear_embedding(model: BilinearModel) -> AnalyticModel:
    """Encode a bilinear model as an analytic one with linear fields g_i(x) = A_i x."""
    n = model.n
    fields = []
    for a in model.mats:
        comps = []
        for i in range(n):
            comps.append(
                MultiPoly(
                    n,
                    {
                        tuple(1 if k == j else 0 for k in range(n)): a[i][j]
                        for j in range(n)
                        if a[i][j] != 0
                    },
                )
            )
        fields.append(PolyVectorField(tuple(comps)))
    readout = MultiPoly(
        n,
        {
            tuple(1 if k == j else 0 for k in range(n)): model.c[j]
            for j in range(n)
            if model.c[j] != 0
        },
    )
    return AnalyticModel(n, model.m, model.x0, tuple(fields), readout)


def _translate(p: MultiPoly, x0, max_degree: int) -> dict[Exponents, Fraction]:
    """Terms of p(x0 + y) in y of total degree <= max_degree, exactly.

    Each monomial expands binomially one variable at a time; a partial
    product whose degree already exceeds the bound is never extended.
    """
    out: dict[Exponents, Fraction] = {}
    for exps, c in p.terms.items():
        partial = [((), 0, c)]
        for e, a in zip(exps, x0):
            nxt = []
            for pre, d, v in partial:
                for k in range(min(e, max_degree - d) + 1):
                    if a or k == e:
                        nxt.append((pre + (k,), d + k, v * comb(e, k) * a ** (e - k)))
            partial = nxt
        for y, _, v in partial:
            out[y] = out.get(y, 0) + v
    return {y: v for y, v in out.items() if v}


def _lie_jet(field, phi: dict[Exponents, Fraction], max_degree: int) -> dict[Exponents, Fraction]:
    """Terms of degree <= max_degree of sum_j (d phi / d y_j) * g_j.

    ``field[j]`` lists the terms of g_j as (degree, exponents, coefficient)
    in increasing degree, so the products that would be dropped are skipped
    before they are formed.
    """
    out: dict[Exponents, Fraction] = {}
    for e, c in phi.items():
        d = sum(e) - 1
        for j, ej in enumerate(e):
            if not ej:
                continue
            base = e[:j] + (ej - 1,) + e[j + 1 :]
            cj = c * ej
            for gd, ge, gc in field[j]:
                if d + gd > max_degree:
                    break
                key = tuple(map(add, base, ge))
                out[key] = out.get(key, 0) + cj * gc
    return {k: v for k, v in out.items() if v}


def cf_coefficients(model: AnalyticModel, n_max: int, term_budget: int = DEFAULT_TERM_BUDGET) -> Series:
    """Generating-series coefficients of an analytic model up to degree n_max.

    The coefficient of a word is the readout's iterated Lie derivative along
    the word, evaluated at x0; the empty word gives the readout at x0 (the
    output's initial value).  The readout and fields are first rewritten exactly in
    y = x - x0, where a coefficient is the constant term of the iterated
    derivative.  The words are walked breadth-first, one Lie derivative per
    word from its prefix's derivative, and held in the series' level order;
    each level is converted once to integer numerators over one denominator.

    Truncation is exact (Taylor-mode differentiation): a Lie derivative
    differentiates once and multiplies by field terms of degree >= 0, so it
    lowers total degree by at most one.  With r derivatives still to apply,
    a term of degree > r can never reach the constant term, and by linearity
    it can be dropped.  Level k is therefore held to degree n_max - k, and
    field terms above degree n_max - 1 are never needed.

    Raises MonomialBudgetError if the monomials held at once -- the level
    being read plus the level being built -- exceed ``term_budget``;
    iterated Lie derivatives can grow without bound and silent truncation
    would corrupt exact data.
    """
    if n_max < 0:
        raise ValueError("degree bound must be nonnegative")
    fields = [
        [
            sorted((sum(e), e, c) for e, c in _translate(comp, model.x0, n_max - 1).items())
            for comp in g.components
        ]
        for g in model.fields
    ]
    origin = (0,) * model.n
    level = [_translate(model.readout, model.x0, n_max)]
    levels = [over_common_denominator([level[0].get(origin, 0)])]
    for remaining in range(n_max - 1, -1, -1):
        held = sum(map(len, level))
        nxt = []
        for phi in level:
            for field in fields:
                psi = _lie_jet(field, phi, remaining) if phi else {}
                nxt.append(psi)
                held += len(psi)
                if held > term_budget:
                    raise MonomialBudgetError(
                        f"iterated Lie derivatives exceed {term_budget} live monomials"
                    )
        level = nxt
        levels.append(over_common_denominator([psi.get(origin, 0) for psi in level]))
    nums, dens = zip(*levels)
    return Series(model.m, n_max, mode=RATIONAL, levels=nums, dens=dens)


def bilinear_coefficients(model: BilinearModel, n_max: int) -> Series:
    """Generating-series coefficients of a bilinear model up to degree n_max.

    The coefficient of w = (i1,...,ik) is r_w * x0 with the row recursion
    r_empty = C, r_{w.i} = r_w * A_i, i.e. C * A_{i1} * ... * A_{ik} * x0.
    A_0..A_m, C and x0 are each scaled to integers over one common
    denominator, and level k is held as a ((m+1)^k, n) integer array whose
    row idx(w) * (m+1) + i is r_{w.i}; rows therefore come in the series'
    level order, and each level's coefficients are one integer mat-vec with
    x0: the level's numerators, handed to the series with the level's
    denominator.
    """
    if n_max < 0:
        raise ValueError("degree bound must be nonnegative")
    n, m = model.n, model.m
    flat, den_a = over_common_denominator(v for a in model.mats for row in a for v in row)
    mats = np.array(flat, dtype=object).reshape(m + 1, n, n)
    c, den = over_common_denominator(model.c)
    x0, den_x = over_common_denominator(model.x0)
    x0 = np.array(x0, dtype=object)
    den *= den_x
    level = np.array(c, dtype=object).reshape(1, n)
    levels, dens = [], []
    for k in range(n_max + 1):
        if k:
            level = np.stack([level @ a for a in mats], axis=1).reshape(len(level) * (m + 1), n)
            den *= den_a
        levels.append((level @ x0).tolist())
        dens.append(den)
    return Series(m, n_max, mode=RATIONAL, levels=levels, dens=dens)


def is_spd(q) -> bool:
    """Exact symmetric positive definiteness via leading principal minors."""
    q = [[Fraction(v) for v in row] for row in q]
    d = len(q)
    if any(len(row) != d for row in q):
        return False
    for i in range(d):
        for j in range(i):
            if q[i][j] != q[j][i]:
                return False
    # Fraction Gaussian elimination tracking leading principal minors.
    a = [row[:] for row in q]
    det = Fraction(1)
    for k in range(d):
        if a[k][k] == 0:
            return False
        det *= a[k][k]
        if det <= 0:
            return False
        for i in range(k + 1, d):
            f = a[i][k] / a[k][k]
            for j in range(k, d):
                a[i][j] -= f * a[k][j]
    return True


def stratonovich_to_ito_drift(model: AnalyticModel, q) -> PolyVectorField:
    """Ito-form drift of the model under noise covariance rate Q.

    Returns b = g0 + (1/2) * sum_{i,j} Q_{ij} (Jacobian g_i) g_j where i, j
    range over the noise channels 1..m.  Q must be symmetric positive
    definite (m x m, rational).
    """
    if not is_spd(q):
        raise ValueError("Q must be a symmetric positive definite m x m matrix")
    q = [[Fraction(v) for v in row] for row in q]
    if len(q) != model.m:
        raise ValueError(f"Q must be {model.m} x {model.m}")
    comps = list(model.fields[0].components)
    for i in range(1, model.m + 1):
        for j in range(1, model.m + 1):
            qij = q[i - 1][j - 1]
            if qij == 0:
                continue
            half = qij * Fraction(1, 2)
            # Row r of (Jacobian g_i) g_j is the Lie derivative of g_i[r] along g_j.
            for row, gir in enumerate(model.fields[i].components):
                comps[row] = comps[row] + lie_derivative(model.fields[j], gir) * half
    return PolyVectorField(tuple(comps))


# -- polynomial expression parser ------------------------------------------
#
# Grammar (operators + - * ^ with standard precedence, ^ binds tightest):
#   expr    := term (('+'|'-') term)*
#   term    := unary ('*' unary)*
#   unary   := '-' unary | power
#   power   := atom ('^' INT)?
#   atom    := NUMBER | VAR | '(' expr ')'
# NUMBER is an integer or integer/integer rational literal; VAR is x<k>;
# the INT of a power is at most MAX_EXPONENT, and no product (a '*' or one
# step of a power) may expand past MAX_TERMS terms.


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ParseError("malformed rational literal", column=i, token=text[i:k])
                toks.append(_Token("num", text[i:k], i))
                i = k
            else:
                toks.append(_Token("num", text[i:j], i))
                i = j
            continue
        if ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable needs an index (x1, x2, ...)", column=i, token=ch)
            toks.append(_Token("var", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character in polynomial", column=i, token=ch)
    toks.append(_Token("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.num_vars = num_vars
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self, kind=None) -> _Token:
        tok = self.toks[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}", column=tok.pos, token=tok.text or "<end>"
            )
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("trailing input after polynomial", column=tok.pos, token=tok.text)
        return p

    def expr(self) -> MultiPoly:
        p = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def product(self, factors, tok: _Token) -> MultiPoly:
        terms = _product_terms(factors, self.num_vars, MAX_TERMS)
        if terms is None:
            raise ParseError(
                f"product expands past the limit of {MAX_TERMS} terms", column=tok.pos, token=tok.text
            )
        return MultiPoly(self.num_vars, terms)

    def term(self) -> MultiPoly:
        p = self.unary()
        while self.peek().kind == "*":
            tok = self.take()
            p = self.product((p, self.unary()), tok)
        return p

    def unary(self) -> MultiPoly:
        if self.peek().kind == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> MultiPoly:
        p = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.take("num")
            if "/" in tok.text:
                raise ParseError("exponent must be an integer", column=tok.pos, token=tok.text)
            if len(tok.text) > len(str(MAX_EXPONENT)) or int(tok.text) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent above the limit of {MAX_EXPONENT}", column=tok.pos, token=tok.text
                )
            return self.product((p,) * int(tok.text), tok)
        return p

    def atom(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            try:
                value = Fraction(tok.text)
            except ZeroDivisionError:
                raise ParseError("zero denominator", column=tok.pos, token=tok.text) from None
            except ValueError:  # more digits than int() converts
                raise ParseError(
                    f"number literal of {len(tok.text)} characters is too long to convert",
                    column=tok.pos,
                    token=f"{tok.text[:20]}...",
                ) from None
            return MultiPoly.const(self.num_vars, value)
        if tok.kind == "var":
            self.take()
            idx = int(tok.text[1:])
            if not 1 <= idx <= self.num_vars:
                raise ParseError(
                    f"variable index outside 1..{self.num_vars}", column=tok.pos, token=tok.text
                )
            return MultiPoly.var(self.num_vars, idx)
        if tok.kind == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        raise ParseError("expected number, variable, or '('", column=tok.pos, token=tok.text or "<end>")


def parse_polynomial(text: str, num_vars: int) -> MultiPoly:
    """Parse a polynomial expression in variables x1..x<num_vars>."""
    return _Parser(text, num_vars).parse()


def poly_to_string(p: MultiPoly) -> str:
    """Canonical text form of a polynomial, parseable by parse_polynomial."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    parts = []
    for exps, c in items:
        factors = []
        if c != 1 or not any(exps):
            factors.append(str(c))
        for j, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{j + 1}")
            elif e > 1:
                factors.append(f"x{j + 1}^{e}")
        parts.append("*".join(factors))
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


# -- model files ------------------------------------------------------------
#
# Line-oriented `key = value` text.  Analytic models carry n, m, x0, g0..gm
# and h; bilinear models carry n, m, x0, A0..Am (flat row-major rational
# lists) and C.  '#' starts a comment; an optional `type = ...` line is
# written by the canonical writer and checked when present.


def _parse_rational_list(text: str, line_no: int) -> list[Fraction]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(Fraction(piece))
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad rational literal", line=line_no, token=piece) from None
    return out


def parse_model(text: str):
    """Parse a model file; returns an AnalyticModel or BilinearModel."""
    fields: dict[str, tuple[str, int]] = {}
    lines = split_lines(text, "model")
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=no, token=line)
        key, value = (s.strip() for s in line.split("=", 1))
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", line=no, token=key)
        fields[key] = (value, no)

    def need(key: str) -> tuple[str, int]:
        if key not in fields:
            raise ParseError(f"missing required key {key!r}")
        return fields.pop(key)

    def as_int(key: str) -> int:
        value, no = need(key)
        try:
            return int(value)
        except ValueError:
            raise ParseError(f"{key} must be an integer", line=no, token=value) from None

    declared = fields.pop("type", (None, None))[0]
    n = as_int("n")
    m = as_int("m")
    if n < 0 or m < 1:
        raise ParseError(f"invalid dimensions n={n}, m={m}")
    x0_text, x0_line = need("x0")
    x0 = _parse_rational_list(x0_text, x0_line) if n else []
    if len(x0) != n:
        raise ParseError(f"x0 needs {n} entries", line=x0_line, token=x0_text)

    bilinear = "A0" in fields
    if declared is not None and declared not in ("analytic", "bilinear"):
        raise ParseError(f"unknown model type {declared!r}")
    if declared == "bilinear" and not bilinear:
        raise ParseError("type = bilinear but no A0 key present")
    if declared == "analytic" and bilinear:
        raise ParseError("type = analytic but A0 key present")

    if bilinear:
        mats = []
        for i in range(m + 1):
            value, no = need(f"A{i}")
            flat = _parse_rational_list(value, no) if n else []
            if len(flat) != n * n:
                raise ParseError(
                    f"A{i} needs {n * n} row-major entries", line=no, token=value
                )
            mats.append(tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n)))
        c_text, c_line = need("C")
        c = _parse_rational_list(c_text, c_line) if n else []
        if len(c) != n:
            raise ParseError(f"C needs {n} entries", line=c_line, token=c_text)
        if fields:
            key = next(iter(fields))
            raise ParseError(f"unknown key {key!r}", line=fields[key][1], token=key)
        return BilinearModel(n, m, tuple(x0), tuple(mats), tuple(c))

    def polynomial(key: str, comp: str, no: int, column: int) -> MultiPoly:
        """Parse one polynomial that starts at ``column`` of line ``no``; an
        error keeps the parser's message and token and counts its column
        (from 0, as the parser does) in the whole line."""
        try:
            return parse_polynomial(comp, n)
        except ParseError as exc:
            raise ParseError(
                f"in {key}: {exc.message}", line=no, column=column + exc.column, token=exc.token
            ) from None

    def value_column(value: str, no: int) -> int:
        raw = lines[no - 1]
        return raw.index(value, raw.index("=") + 1)

    vfs = []
    for i in range(m + 1):
        value, no = need(f"g{i}")
        pieces = value.split(",")
        if len(pieces) != n:
            raise ParseError(f"g{i} needs {n} components", line=no, token=value)
        parsed = []
        column = value_column(value, no)
        for piece in pieces:
            comp = piece.strip()
            parsed.append(polynomial(f"g{i}", comp, no, column + piece.index(comp)))
            column += len(piece) + 1
        vfs.append(PolyVectorField(tuple(parsed)))
    h_text, h_line = need("h")
    readout = polynomial("h", h_text, h_line, value_column(h_text, h_line))
    if fields:
        key = next(iter(fields))
        raise ParseError(f"unknown key {key!r}", line=fields[key][1], token=key)
    return AnalyticModel(n, m, tuple(x0), tuple(vfs), readout)


def format_model(model) -> str:
    """Canonical model file text (inverse of parse_model)."""
    lines = []
    if isinstance(model, BilinearModel):
        lines.append("type = bilinear")
        lines.append(f"n = {model.n}")
        lines.append(f"m = {model.m}")
        lines.append("x0 = " + ", ".join(map(str, model.x0)))
        for i, a in enumerate(model.mats):
            lines.append(f"A{i} = " + ", ".join(str(v) for row in a for v in row))
        lines.append("C = " + ", ".join(map(str, model.c)))
    elif isinstance(model, AnalyticModel):
        lines.append("type = analytic")
        lines.append(f"n = {model.n}")
        lines.append(f"m = {model.m}")
        lines.append("x0 = " + ", ".join(map(str, model.x0)))
        for i, g in enumerate(model.fields):
            lines.append(f"g{i} = " + ", ".join(poly_to_string(c) for c in g.components))
        lines.append("h = " + poly_to_string(model.readout))
    else:
        raise TypeError(f"not a model: {model!r}")
    return "\n".join(lines) + "\n"


def read_model(path):
    """Parse the model file at ``path``."""
    return parse_model(read_ascii(path, "model"))
