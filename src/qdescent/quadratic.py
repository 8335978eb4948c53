"""Quadratic polynomials over a normed domain in d variables.

A polynomial is stored by degree: a table of monomial coefficients c_ij
(i <= j, zero-based) for the homogeneous quadratic part, a vector for the
linear part, and a constant.  The table representation works in every
characteristic; in characteristic 2 the symmetric-matrix encoding with
halved off-diagonal entries does not exist, so no matrix is ever formed.

Evaluation at a fraction point a/b clears denominators first and performs
all intermediate arithmetic in the ring: f(a/b) = (f2(a) + b*f1(a) +
b^2*f0) / b^2.
"""

from __future__ import annotations

from collections.abc import Iterable

from .domains import Domain, DomainElement, FractionElement, FractionPoint, _Frozen, _Record
from .errors import (
    DimensionMismatchError,
    DomainMismatchError,
    InternalInvariantError,
)

# Largest dimension of a polynomial.  The q2 walk (enumeration._q2_prefixes)
# and the zero searches recurse once per coordinate, so this stays well
# under Python's default recursion limit of 1000; formparse reads it as the
# largest variable index.
_MAX_DIMENSION = 500


class LineExpansion(_Record):
    """Coefficients of f(y + T*v) = C + B*T + A*T^2; A always equals f2(v)."""

    A: DomainElement
    B: DomainElement
    C: DomainElement


class QuadraticPolynomial(_Frozen):
    """f = f2 + f1 + f0 with coefficients in one domain.

    quad maps (i, j) with i <= j to the coefficient of X_i X_j; entries
    with zero coefficient are dropped.  lin is the length-d coefficient
    vector of f1 and const is f0.  For evaluation, construction also
    builds two term tables: _quad_terms, the (i, j, c) of quad in order
    with c = None where the coefficient is the ring's one, so that only
    the other coefficients cost a multiply; and _lin_terms, the (i, c) of
    lin with c nonzero, again with c = None for the ring's one.
    """

    __slots__ = ("domain", "d", "quad", "lin", "const", "_quad_terms", "_lin_terms")

    def __init__(self, domain: Domain, d: int, quad: dict[tuple[int, int], object],
                 lin: Iterable = (), const=0):
        if d < 1:
            raise DimensionMismatchError(f"dimension must be >= 1, got {d}")
        if d > _MAX_DIMENSION:
            raise DimensionMismatchError(f"dimension must be <= {_MAX_DIMENSION}, got {d}")
        table = {}
        for (i, j), c in quad.items():
            if not (0 <= i <= j < d):
                raise DimensionMismatchError(f"bad monomial index ({i},{j}) for d={d}")
            raw = domain.coerce_raw(c)
            if not domain._is_zero(raw):
                table[(i, j)] = raw
        linv = [domain._ZERO] * d
        for i, c in enumerate(lin):
            if i >= d:
                raise DimensionMismatchError("linear part longer than dimension")
            linv[i] = domain.coerce_raw(c)
        quad = {k: table[k] for k in sorted(table)}
        self._fill(domain, d, quad, tuple(linv), domain.coerce_raw(const),
                   tuple((i, j, None if c == domain._ONE else c) for (i, j), c in quad.items()),
                   tuple((i, None if c == domain._ONE else c)
                         for i, c in enumerate(linv) if not domain._is_zero(c)))

    def _fill(self, *values):
        """Set the slots of a new polynomial to values, in __slots__ order,
        and return it: the one writer of a polynomial's fields."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __reduce__(self):
        return (QuadraticPolynomial, (self.domain, self.d, self.quad, self.lin, self.const))

    # -- raw-vector evaluation helpers ------------------------------------

    def _f2_raw(self, vec):
        dom = self.domain
        add, mul = dom._add, dom._mul
        acc = None
        for i, j, c in self._quad_terms:
            t = mul(vec[i], vec[j])
            if c is not None:
                t = mul(c, t)
            acc = t if acc is None else add(acc, t)
        return dom._ZERO if acc is None else acc

    def _f1_raw(self, vec):
        dom = self.domain
        acc = None
        for i, c in self._lin_terms:
            t = vec[i] if c is None else dom._mul(c, vec[i])
            acc = t if acc is None else dom._add(acc, t)
        return dom._ZERO if acc is None else acc

    def _eval_raw(self, vec):
        dom = self.domain
        acc = self._f2_raw(vec)
        if self._lin_terms:
            acc = dom._add(acc, self._f1_raw(vec))
        return dom._add(acc, self.const)

    def _coerce_vector(self, pt):
        if isinstance(pt, FractionPoint):
            raise TypeError("expected an integral vector, got a FractionPoint")
        vec = [self.domain.coerce_raw(c) for c in pt]
        if len(vec) != self.d:
            raise DimensionMismatchError(
                f"point has {len(vec)} coordinates, polynomial has {self.d}"
            )
        return vec

    def _point_raws(self, x: FractionPoint):
        """The raws (a, b) of the point x = a/b, after checking that x is
        in this polynomial's domain and dimension: the one way from a
        public point to its raws."""
        if x.domain != self.domain:
            raise DomainMismatchError(
                f"point over {x.domain.name}, polynomial over {self.domain.name}"
            )
        if x.dim != self.d:
            raise DimensionMismatchError(
                f"point has {x.dim} coordinates, polynomial has {self.d}"
            )
        return [n.raw for n in x.nums], x.den.raw

    # -- public evaluation -------------------------------------------------

    def _cleared_raw(self, a, b):
        """The raw numerator b^2 f(x) = f2(a) + b*(f1(a) + b*f0) at x = a/b,
        for raws a and b, which vanishes exactly when x is a zero of f."""
        dom = self.domain
        tail = dom._mul(b, self.const)
        if self._lin_terms:
            tail = dom._add(self._f1_raw(a), tail)
        return dom._add(self._f2_raw(a), dom._mul(b, tail))

    def _form_value_raw(self, a, b):
        """The raw q2(a)/b^2 when b^2 divides q2(a), else None.  For a form
        q = q2 this is the value q(a/b), which is in the ring exactly when
        it is not None."""
        dom = self.domain
        r = self._f2_raw(a)
        if b == dom._ONE:
            return r
        return dom._quotient_or_none(r, dom._mul(b, b))

    def eval(self, x: FractionPoint) -> FractionElement:
        """Exact value f(x) in the fraction field."""
        a, b = self._point_raws(x)
        cleared = self._cleared_raw(a, b)
        return FractionElement(self.domain, cleared, self.domain._mul(b, b))

    def eval_at_integral(self, pt) -> DomainElement:
        return DomainElement(self.domain, self._eval_raw(self._coerce_vector(pt)))

    def expand_along_line(self, y, v) -> LineExpansion:
        """Coefficients of F(T) = f(y + T*v) for integral y and v.

        A = f2(v), C = f(y), B = f(y+v) - A - C.  The identity
        F(-1) = A - B + C is re-checked; a mismatch would mean the
        expansion itself is broken, so it raises InternalInvariantError.
        """
        dom = self.domain
        A, B, C = self._line_raw(self._coerce_vector(y), self._coerce_vector(v))
        return LineExpansion(
            DomainElement(dom, A), DomainElement(dom, B), DomainElement(dom, C)
        )

    def _line_raw(self, yv, vv, A=None):
        """expand_along_line on raw vectors: the raws (A, B, C), with the
        same F(-1) check.  A caller that already holds A = f2(vv) passes
        it.  B is derived as f(yv + vv) - A - C, so a wrong A fails this
        check outside characteristic 2, and the descent step's
        A + B*b + C*b^2 = 0 check in every characteristic."""
        dom = self.domain
        if A is None:
            A = self._f2_raw(vv)
        C = self._eval_raw(yv)
        plus = [dom._add(a, b) for a, b in zip(yv, vv)]
        B = dom._add(self._eval_raw(plus), dom._neg(dom._add(A, C)))
        minus = [dom._add(a, dom._neg(b)) for a, b in zip(yv, vv)]
        lhs = self._eval_raw(minus)
        rhs = dom._add(A, dom._add(dom._neg(B), C))
        if lhs != rhs:
            raise InternalInvariantError(
                "line expansion failed the t = -1 identity check"
            )
        return A, B, C

    # -- structure ----------------------------------------------------------

    def is_form(self) -> bool:
        """True when the linear part and constant vanish (f = f2)."""
        return self.domain._is_zero(self.const) and not self._lin_terms

    def sub_scalar(self, r) -> "QuadraticPolynomial":
        """The polynomial f - r for a ring scalar r.  Only the constant
        changes, so the result shares this polynomial's checked tables
        (quad copied) instead of rebuilding them in the constructor."""
        dom = self.domain
        const = dom._add(self.const, dom._neg(dom.coerce_raw(r)))
        return object.__new__(QuadraticPolynomial)._fill(
            dom, self.d, dict(self.quad), self.lin, const, self._quad_terms, self._lin_terms
        )

    def __eq__(self, other):
        if not isinstance(other, QuadraticPolynomial):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.d == other.d
            and self.quad == other.quad
            and self.lin == other.lin
            and self.const == other.const
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"QuadraticPolynomial({self.domain.name}, d={self.d}, "
            f"quad={self.quad!r}, lin={self.lin!r}, const={self.const!r})"
        )
