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

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, mul

import numpy as np

from .errors import AlphabetError, MonomialBudgetError, ParseError
from .exactla import RowSpan, over_common_denominator
from .fps import RATIONAL, Series, read_ascii, split_lines

Exponents = tuple[int, ...]

DEFAULT_TERM_BUDGET = 10**6

# Largest exponent the polynomial parser expands.  p^e is built by e
# multiplications, so an unbounded e lets one short line stall a model read.
MAX_EXPONENT = 16

# Largest number of terms a product may expand to in the polynomial parser,
# checked while it expands: (1+x1+...+x6)^16 would have 74 613 terms.
MAX_TERMS = 2000

# Largest total degree of a term the polynomial parser builds, checked on
# each product and on each power before it is expanded.  Nested powers
# multiply degrees: six nested ^16 on x1 give degree 16 777 216 in one short
# line, and translating that readout to x0 for the series takes a minute.
# 4096 is three nested ^16.
MAX_DEGREE = 4096

# Largest bit length of a coefficient's numerator or denominator the
# polynomial parser builds, checked on each product.  Nested powers of a
# constant multiply its bit length: seven levels of ^16 on 2 build a
# 268-million-bit integer.  A power is checked from its base before it is
# expanded; a product of two factors is checked once it is built, so a
# refused one has at most twice this many bits.
MAX_COEFFICIENT_BITS = 2**20

# Deepest parenthesis nesting the polynomial parser reads.  Each level costs
# a few interpreter frames, so an unbounded depth would overflow the stack.
MAX_NESTING = 100


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

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __add__(self, other):
        return MultiPoly(self.num_vars, _sum_terms(self.terms, self._coerce(other).terms, 1))

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return MultiPoly(self.num_vars, _sum_terms(self.terms, self._coerce(other).terms, -1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.num_vars, {e: c * other for e, c in self.terms.items()})
        factors = (self.terms, self._coerce(other).terms)
        return MultiPoly(self.num_vars, _product_terms(factors, self.num_vars))

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


def _sum_terms(p: dict, q: dict, sign: int) -> dict[Exponents, Fraction]:
    """Terms of p + sign * q, for term dicts with no zero coefficient."""
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _product_terms(factors, num_vars: int, limit: float = float("inf")):
    """Terms of the product of the factors (term dicts), or None once a
    partial product passes ``limit`` terms.  Each factor is scaled to
    integers over one common denominator, so Fractions are formed only at
    the end."""
    out: dict[Exponents, int] = {(0,) * num_vars: 1}
    den = 1
    for q in factors:
        q_num, q_den = over_common_denominator(q.values())
        q_items = list(zip(q, q_num))
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

    Each output sums its own terms c * monomial in sorted monomial order,
    started from its first term.  A monomial is the product of its
    variables left to right, repeats included: x1^2*x2 is (x1 * x1) * x2,
    and the constant monomial is 1.0.  The monomials are formed one at a
    time, each shared by the outputs that use it, so a call's memory does
    not grow with the number of terms.  Every operation is an elementwise
    multiply or add, each correctly rounded, so the bits follow neither a
    BLAS kernel nor numpy's SIMD dispatch.
    """
    single = isinstance(polys, MultiPoly)
    polys = [polys] if single else list(polys)
    firsts = [min(p.terms, default=None) for p in polys]
    # Per monomial: its variables left to right, and (output, coefficient,
    # whether the term starts the output's sum) of each output using it.
    plan = [
        (
            [i for i, a in enumerate(e) for _ in range(a)],
            [(k, float(p.terms[e]), e == f) for k, (p, f) in enumerate(zip(polys, firsts)) if e in p.terms],
        )
        for e in sorted({e for p in polys for e in p.terms})
    ]

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((len(polys),) + x.shape[:-1])
        mono, term = np.empty(x.shape[:-1]), np.empty(x.shape[:-1])
        for factors, uses in plan:
            v = x[..., factors[0]] if factors else 1.0
            for i in factors[1:]:
                v = np.multiply(v, x[..., i], out=mono)
            for k, c, first in uses:
                if first:
                    np.multiply(v, c, out=out[k, ...])
                else:
                    out[k, ...] += np.multiply(v, c, out=term)
        return out[0] if single else np.moveaxis(out, 0, -1)

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
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]

    def linear(row) -> MultiPoly:
        return MultiPoly(n, dict(zip(units, row)))

    fields = tuple(PolyVectorField(tuple(map(linear, a))) for a in model.mats)
    return AnalyticModel(n, model.m, model.x0, fields, linear(model.c))


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


def _lie_jet(field, phi: dict[int, int], units: list[int], max_degree: int) -> dict[int, int]:
    """Terms of degree <= max_degree of sum_j (d phi / d y_j) * g_j.

    Monomials are packed keys (see cf_coefficients): the exponent of y_j is
    the digit of ``units[j]``, the total degree the top digit.  ``field[j]``
    lists the terms of g_j as (key, integer over D_g) in increasing key, so
    in increasing degree, and the products that would be dropped are skipped
    before they are formed; integers over d give integers over d * D_g.
    """
    radix, top = units[1], units[-1]
    limit = (max_degree + 1) * top
    out: dict[int, int] = {}
    for e, c in phi.items():
        for unit, terms in zip(units, field):
            ej = e // unit % radix
            if not ej:
                continue
            base = e - unit - top
            cj = c * ej
            for ge, gc in terms:
                key = base + ge
                if key >= limit:
                    break
                out[key] = out.get(key, 0) + cj * gc
    return {k: v for k, v in out.items() if v}


def cf_coefficients(model: AnalyticModel, n_max: int, term_budget: int = DEFAULT_TERM_BUDGET) -> Series:
    """Generating-series coefficients of an analytic model up to degree n_max.

    The coefficient of a word is the readout's iterated Lie derivative along
    the word, evaluated at x0; the empty word gives the readout at x0 (the
    output's initial value).  The readout and fields are first rewritten exactly in
    y = x - x0, where a coefficient is the constant term of the iterated
    derivative, and scaled to integers over one denominator each, D_h and
    D_g, so the derivatives of level k are integers over D_h * D_g^k.  A
    monomial y^e is keyed by one integer, the digits e_1..e_n (lowest first)
    and then |e| in base n_max + 1; no degree held exceeds n_max.
    The words are walked breadth-first, one Lie derivative per word from its
    prefix's derivative, in the series' level order.

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
    fields = [[_translate(comp, model.x0, n_max - 1) for comp in g.components] for g in model.fields]
    nums, den_g = over_common_denominator(c for g in fields for comp in g for c in comp.values())
    nums = iter(nums)
    units = [(n_max + 1) ** j for j in range(model.n + 1)]

    def pack(e: Exponents) -> int:
        return sum(map(mul, units, e + (sum(e),)))

    fields = [[sorted((pack(e), next(nums)) for e in comp) for comp in g] for g in fields]
    readout = _translate(model.readout, model.x0, n_max)
    nums, den_h = over_common_denominator(readout.values())
    level = [dict(zip(map(pack, readout), nums))]
    levels = [[level[0].get(0, 0)]]
    for remaining in range(n_max - 1, -1, -1):
        held = sum(map(len, level))
        nxt = []
        for phi in level:
            for field in fields:
                psi = _lie_jet(field, phi, units, remaining) if phi else {}
                nxt.append(psi)
                held += len(psi)
                if held > term_budget:
                    raise MonomialBudgetError(
                        f"iterated Lie derivatives exceed {term_budget} live monomials"
                    )
        level = nxt
        levels.append([psi.get(0, 0) for psi in level])
    dens = [den_h * den_g**k for k in range(n_max + 1)]
    return Series(model.m, n_max, mode=RATIONAL, levels=levels, dens=dens)


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
    """Exact symmetric positive definiteness by Sylvester's criterion: Q is
    square and symmetric, and a RowSpan fed its rows in order pivots on the
    diagonal with positive pivots (Q's leading principal minors, up to
    positive row scalings)."""
    q = [[Fraction(v) for v in row] for row in q]
    if any(len(row) != len(q) for row in q) or q != [list(col) for col in zip(*q)]:
        return False
    span = RowSpan(len(q))
    for row in q:
        span.add(row)
    return [(col, p > 0) for col, p in span.pivots] == [(k, True) for k in range(len(q))]


def ito_correction(model: AnalyticModel, q, firsts) -> MultiPoly:
    """Ito correction (1/2) sum_{i,j} Q_{ij} L_{g_j} f_i of a polynomial phi,
    given its first Lie derivatives f_i = L_{g_i} phi along the noise fields
    g_1..g_m; Q is the m x m rational covariance rate, not validated here.
    The Ito drift of phi(X) is L_{g0} phi plus this correction."""
    out = MultiPoly.zero(model.n)
    for qi, f in zip(q, firsts):
        for qij, g in zip(qi, model.fields[1:]):
            if qij:
                out = out + lie_derivative(g, f) * (qij * Fraction(1, 2))
    return out


def stratonovich_to_ito_drift(model: AnalyticModel, q) -> PolyVectorField:
    """Ito-form drift of the model under noise covariance rate Q.

    Returns b = g0 + (1/2) * sum_{i,j} Q_{ij} (Jacobian g_i) g_j where i, j
    range over the noise channels 1..m: row r adds the Ito correction of x_r,
    whose first Lie derivatives are g_i[r].  Q must be symmetric positive
    definite (m x m, rational).
    """
    if not is_spd(q):
        raise ValueError("Q must be a symmetric positive definite m x m matrix")
    q = [[Fraction(v) for v in row] for row in q]
    if len(q) != model.m:
        raise ValueError(f"Q must be {model.m} x {model.m}")
    rows = zip(*(g.components for g in model.fields))
    return PolyVectorField(tuple(g0r + ito_correction(model, q, gr) for g0r, *gr in rows))


# -- polynomial expression parser ------------------------------------------
#
# Grammar (operators + - * ^ with standard precedence, ^ binds tightest):
#   expr    := term (('+'|'-') term)*
#   term    := unary ('*' unary)*
#   unary   := '-' unary | power
#   power   := atom ('^' INT)?
#   atom    := NUMBER | VAR | '(' expr ')'
# NUMBER is an integer or integer/integer rational literal and VAR is x<INT>,
# where INT is a run of ASCII digits 0-9; the INT of a power is at most
# MAX_EXPONENT, no product (a '*' or one step of a power) may expand past
# MAX_TERMS terms, no product ('*' or '^') may hold a term past MAX_DEGREE or
# a coefficient past MAX_COEFFICIENT_BITS bits, and parentheses nest at most
# MAX_NESTING deep.  The parser passes term dicts {exponents: Fraction}.

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]*)?)|(?P<var>x[0-9]*)|(?P<op>[-+*^()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens (kind, text, column) of a polynomial, then ("end", "", len(text));
    an operator's kind is its text.  Any non-space character starts a match
    (``bad`` at worst), so ``finditer`` skips trailing whitespace only."""
    toks, depth = [], 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        tok, pos = match[kind], match.start(kind)
        if kind == "bad":
            raise ParseError("unexpected character in polynomial", column=pos, token=tok)
        if tok[-1] == "/":
            raise ParseError("malformed rational literal", column=pos, token=tok)
        if tok == "x":
            raise ParseError("variable needs an index (x1, x2, ...)", column=pos, token=tok)
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", column=pos, token=tok)
        toks.append((tok if kind == "op" else kind, tok, pos))
    toks.append(("end", "", len(text)))
    return toks


_PAST_DEGREE = f"product has degree past the limit of {MAX_DEGREE}"
_PAST_BITS = f"product has a coefficient past the limit of {MAX_COEFFICIENT_BITS} bits"


class _Parser:
    def __init__(self, text: str, num_vars: int):
        self.num_vars = num_vars
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self, kind=None) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}", column=tok[2], token=tok[1] or "<end>"
            )
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        terms = self.expr()
        _, text, pos = self.take()
        if text:
            raise ParseError("trailing input after polynomial", column=pos, token=text)
        return MultiPoly(self.num_vars, terms)

    def expr(self) -> dict:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            p = _sum_terms(p, self.term(), 1 if op == "+" else -1)
        return p

    def product(self, factors, tok) -> dict:
        terms = _product_terms(factors, self.num_vars, MAX_TERMS)
        if terms is None:
            message = f"product expands past the limit of {MAX_TERMS} terms"
        elif max(map(sum, terms), default=0) > MAX_DEGREE:
            message = _PAST_DEGREE
        elif any(
            max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFFICIENT_BITS
            for c in terms.values()
        ):
            message = _PAST_BITS
        else:
            return terms
        raise ParseError(message, column=tok[2], token=tok[1])

    def term(self) -> dict:
        p = self.unary()
        while self.peek() == "*":
            tok = self.take()
            p = self.product((p, self.unary()), tok)
        return p

    def unary(self) -> dict:
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        p = self.power()
        return {e: -c for e, c in p.items()} if negate else p

    def power(self) -> dict:
        nested = self.peek() == "("
        p = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take("num")
            _, text, pos = tok
            if "/" in text:
                raise ParseError("exponent must be an integer", column=pos, token=text)
            if len(text) > len(str(MAX_EXPONENT)) or int(text) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent above the limit of {MAX_EXPONENT}", column=pos, token=text
                )
            e = int(text)
            if nested and p:
                # Refuse a power too large to build: e * deg(p) is the degree
                # of p^e, and the e-th power of a term whose coefficient has
                # b bits has e * (b - 1) + 1 bits or more.  b is taken over
                # every term: the lex-first and lex-last terms' powers are
                # terms of p^e outright, and an interior term's power could
                # only be cancelled by products of coefficients about as
                # large.  A variable or a number short enough to convert
                # stays within both bounds at any exponent.
                b = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.values())
                if e * max(map(sum, p)) > MAX_DEGREE:
                    raise ParseError(_PAST_DEGREE, column=pos, token=text)
                if e * (b - 1) + 1 > MAX_COEFFICIENT_BITS:
                    raise ParseError(_PAST_BITS, column=pos, token=text)
            return self.product((p,) * e, tok)
        return p

    def atom(self) -> dict:
        kind, text, pos = self.take()
        if kind == "num":
            try:
                value = Fraction(text)
            except ZeroDivisionError:
                raise ParseError("zero denominator", column=pos, token=text) from None
            except ValueError:  # more digits than int() converts
                raise ParseError(
                    f"number literal of {len(text)} characters is too long to convert",
                    column=pos,
                    token=f"{text[:20]}...",
                ) from None
            return {(0,) * self.num_vars: value} if value else {}
        if kind == "var":
            digits = text[1:].lstrip("0")  # no int() of more digits than num_vars has
            idx = int(digits) if 0 < len(digits) <= len(str(self.num_vars)) else 0
            if not 1 <= idx <= self.num_vars:
                raise ParseError(
                    f"variable index outside 1..{self.num_vars}", column=pos, token=text
                )
            return {tuple(int(j == idx) for j in range(1, self.num_vars + 1)): Fraction(1)}
        if kind == "(":
            p = self.expr()
            self.take(")")
            return p
        raise ParseError("expected number, variable, or '('", column=pos, token=text or "<end>")


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


# An entry of an x0, A<i> or C list: the polynomial NUMBER grammar with an
# optional minus sign, the form format_model writes.  Fraction(str) alone
# would also take decimal exponents, so "1e1000000" would build a
# 3-million-bit integer.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _parse_rational_list(text: str, line_no: int) -> list[Fraction]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            if not _RATIONAL.fullmatch(piece):
                raise ValueError(piece)
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
        model = BilinearModel(n, m, tuple(x0), tuple(mats), tuple(c))
    else:
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
        model = AnalyticModel(n, m, tuple(x0), tuple(vfs), readout)
    if fields:
        key = next(iter(fields))
        raise ParseError(f"unknown key {key!r}", line=fields[key][1], token=key)
    return model


def format_model(model) -> str:
    """Canonical model file text (inverse of parse_model)."""
    if not isinstance(model, (BilinearModel, AnalyticModel)):
        raise TypeError(f"not a model: {model!r}")
    bilinear = isinstance(model, BilinearModel)
    lines = ["type = bilinear" if bilinear else "type = analytic"]
    lines.append(f"n = {model.n}")
    lines.append(f"m = {model.m}")
    lines.append("x0 = " + ", ".join(map(str, model.x0)))
    if bilinear:
        for i, a in enumerate(model.mats):
            lines.append(f"A{i} = " + ", ".join(str(v) for row in a for v in row))
        lines.append("C = " + ", ".join(map(str, model.c)))
    else:
        for i, g in enumerate(model.fields):
            lines.append(f"g{i} = " + ", ".join(poly_to_string(c) for c in g.components))
        lines.append("h = " + poly_to_string(model.readout))
    return "\n".join(lines) + "\n"


def read_model(path):
    """Parse the model file at ``path``."""
    return parse_model(read_ascii(path, "model"))
