"""Exact arithmetic in three normed integral domains and their fraction fields.

The rings are the rational integers, the Gaussian integers, and F_p[t],
polynomials in one variable over a prime field.  Each ring carries a
multiplicative norm into the nonnegative integers: absolute value,
re^2 + im^2, and p^deg (with norm 0 reserved for the zero element).  The
norm extends to the fraction field as norm(a)/norm(b), returned as an
exact Fraction.

Raw carrier values are plain Python data: ints, (re, im) pairs, or tuples
of coefficients in ascending degree with no trailing zero.  DomainElement
wraps a raw value together with its Domain so that mixed-domain arithmetic
fails loudly instead of coercing silently.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, List, Tuple

from .errors import (
    DimensionMismatchError,
    DomainMismatchError,
    ExactDivisionError,
    ValueNotIntegralError,
    ZeroDenominatorError,
)


def _round_half_toward_zero(n: int, d: int) -> int:
    """Nearest integer to n/d for d > 0, ties broken toward zero."""
    q, r = divmod(n, d)
    if 2 * r > d:
        return q + 1
    if 2 * r < d:
        return q
    # exact half: q and q+1 are equally near, pick the one closer to 0
    return q + 1 if q < 0 else q


class Domain:
    """A commutative integral domain with a discrete multiplicative norm.

    Subclasses implement the raw-value protocol (methods taking and
    returning carrier values) plus the bounded enumerations used by the
    search routines.  Adding another normed domain means subclassing this
    and nothing else; the rest of the package only talks to the protocol.
    """

    name = "?"

    # -- raw-value protocol, implemented by subclasses -------------------

    def coerce_raw(self, obj):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _norm(self, a) -> int:
        raise NotImplementedError

    def _is_unit(self, a) -> bool:
        raise NotImplementedError

    def _divexact(self, a, b):
        """a / b when the quotient lies in the ring; ExactDivisionError otherwise."""
        raise NotImplementedError

    def _gcd(self, a, b):
        """The canonical-associate gcd of a and b (nonzero if either is)."""
        raise NotImplementedError

    def _normalizing_unit(self, a):
        """Unit u such that a*u is the canonical associate of a (a nonzero)."""
        raise NotImplementedError

    def _round_quotient(self, a, b):
        """Ring element nearest to a/b; see each domain for the tie rule."""
        raise NotImplementedError

    def _sort_key(self, a):
        raise NotImplementedError

    def _format(self, a) -> str:
        raise NotImplementedError

    def _random_raw(self, rng: random.Random, bound: int):
        raise NotImplementedError

    # enumerations (raw values, deterministic order) ----------------------
    #
    # _box_raws and _denominator_raws may be lazy iterables; _box_count and
    # _denominator_count give their lengths in closed form, so a search can
    # be sized before anything is generated.

    def _box_raws(self, bound: int):
        raise NotImplementedError

    def _box_count(self, bound: int) -> int:
        raise NotImplementedError

    def _graded_raws(self, bound: int):
        """The _box_raws elements, lazily, in (norm, sort key) order."""
        raise NotImplementedError

    def _denominator_raws(self, height: int):
        raise NotImplementedError

    def _denominator_count(self, height: int) -> int:
        raise NotImplementedError

    def _offset_raws(self, window: int) -> list:
        raise NotImplementedError

    def _norm_bounded_raws(self, bound: int) -> list:
        raise NotImplementedError

    def _box_radius(self, a) -> int:
        """Smallest bound whose _box_raws enumeration contains a."""
        raise NotImplementedError

    # -- shared element-level API ----------------------------------------

    def element(self, obj) -> "DomainElement":
        return DomainElement(self, self.coerce_raw(obj))

    @property
    def zero(self) -> "DomainElement":
        return self.element(0)

    @property
    def one(self) -> "DomainElement":
        return self.element(1)

    def random_element(self, rng: random.Random, bound: int) -> "DomainElement":
        """Seeded random element; bound is a magnitude bound (Z, Z[i]) or a
        degree bound (F_p[t])."""
        return DomainElement(self, self._random_raw(rng, bound))

    def box_elements(self, bound: int) -> List["DomainElement"]:
        """All elements usable as point coordinates within the box: |a| <= bound
        for Z, |re|,|im| <= bound for Z[i], deg <= bound for F_p[t]."""
        return [DomainElement(self, r) for r in self._box_raws(bound)]

    def denominator_elements(self, height: int) -> List["DomainElement"]:
        """Canonical non-unit denominators of norm <= height (degree <= height
        for F_p[t]), sorted by (norm, sort key)."""
        return [DomainElement(self, r) for r in self._denominator_raws(height)]

    def offset_elements(self, window: int) -> List["DomainElement"]:
        """Search offsets around a rounded point: norm <= window for Z and
        Z[i]; degree < window for F_p[t].  Always contains 0."""
        return [DomainElement(self, r) for r in self._offset_raws(window)]

    def norm_bounded_elements(self, bound: int) -> List["DomainElement"]:
        """Nonzero elements with norm <= bound (Z, Z[i]) or degree <= bound
        (F_p[t]); used by the unit-norm enumeration checks."""
        return [DomainElement(self, r) for r in self._norm_bounded_raws(bound)]

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return f"<domain {self.name}>"


class DomainElement:
    """A ring element tagged with its domain.  Immutable."""

    __slots__ = ("domain", "raw")

    def __init__(self, domain: Domain, raw):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError("DomainElement is immutable")

    def _peer_raw(self, other):
        if isinstance(other, DomainElement):
            if other.domain != self.domain:
                raise DomainMismatchError(
                    f"cannot mix elements of {self.domain.name} and {other.domain.name}"
                )
            return other.raw
        if isinstance(other, int):
            return self.domain.coerce_raw(other)
        return None

    def __add__(self, other):
        r = self._peer_raw(other)
        if r is None:
            return NotImplemented
        return DomainElement(self.domain, self.domain._add(self.raw, r))

    __radd__ = __add__

    def __neg__(self):
        return DomainElement(self.domain, self.domain._neg(self.raw))

    def __sub__(self, other):
        r = self._peer_raw(other)
        if r is None:
            return NotImplemented
        return DomainElement(self.domain, self.domain._add(self.raw, self.domain._neg(r)))

    def __rsub__(self, other):
        r = self._peer_raw(other)
        if r is None:
            return NotImplemented
        return DomainElement(self.domain, self.domain._add(r, self.domain._neg(self.raw)))

    def __mul__(self, other):
        r = self._peer_raw(other)
        if r is None:
            return NotImplemented
        return DomainElement(self.domain, self.domain._mul(self.raw, r))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.domain.coerce_raw(1)
        base = self.raw
        while n:
            if n & 1:
                out = self.domain._mul(out, base)
            base = self.domain._mul(base, base)
            n >>= 1
        return DomainElement(self.domain, out)

    def __eq__(self, other):
        # int operands compare through coercion (test convenience); note that
        # hash(element) is deliberately not hash(int), so do not mix the two
        # as keys of one dict.
        r = self._peer_raw(other) if isinstance(other, (DomainElement, int)) else None
        if r is None:
            return NotImplemented
        return self.raw == r

    def __hash__(self):
        return hash((self.domain, self.raw))

    def __bool__(self):
        return not self.domain._is_zero(self.raw)

    def is_zero(self) -> bool:
        return self.domain._is_zero(self.raw)

    def is_unit(self) -> bool:
        return self.domain._is_unit(self.raw)

    def norm(self) -> int:
        return self.domain._norm(self.raw)

    def sort_key(self):
        return self.domain._sort_key(self.raw)

    def __str__(self):
        return self.domain._format(self.raw)

    __repr__ = __str__


class RationalIntegers(Domain):
    """Z with the absolute-value norm."""

    name = "Z"

    def coerce_raw(self, obj):
        if isinstance(obj, DomainElement):
            if obj.domain != self:
                raise DomainMismatchError(f"expected Z element, got {obj.domain.name}")
            return obj.raw
        if isinstance(obj, int):
            return int(obj)
        raise TypeError(f"cannot interpret {obj!r} as an integer")

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _is_zero(self, a):
        return a == 0

    def _norm(self, a):
        return abs(a)

    def _is_unit(self, a):
        return a == 1 or a == -1

    def _divexact(self, a, b):
        if b == 0:
            raise ExactDivisionError("division by zero")
        q, r = divmod(a, b)
        if r:
            raise ExactDivisionError(f"{b} does not divide {a}")
        return q

    def _gcd(self, a, b):
        return math.gcd(a, b)

    def _normalizing_unit(self, a):
        return -1 if a < 0 else 1

    def _round_quotient(self, a, b):
        if b < 0:
            a, b = -a, -b
        return _round_half_toward_zero(a, b)

    def _sort_key(self, a):
        return a

    def _format(self, a):
        return str(a)

    def _random_raw(self, rng, bound):
        return rng.randint(-bound, bound)

    def _box_raws(self, bound):
        return range(-bound, bound + 1)

    def _box_count(self, bound):
        return max(0, 2 * bound + 1)

    def _graded_raws(self, bound):
        if bound >= 0:
            yield 0
        for m in range(1, bound + 1):
            yield -m
            yield m

    def _denominator_raws(self, height):
        return range(2, height + 1)

    def _denominator_count(self, height):
        return max(0, height - 1)

    def _offset_raws(self, window):
        return list(range(-window, window + 1))

    def _norm_bounded_raws(self, bound):
        return [a for a in range(-bound, bound + 1) if a != 0]

    def _box_radius(self, a):
        return abs(a)


class GaussianIntegers(Domain):
    """Z[i] as (re, im) pairs, norm re^2 + im^2."""

    name = "Zi"

    _UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))

    def coerce_raw(self, obj):
        if isinstance(obj, DomainElement):
            if obj.domain != self:
                raise DomainMismatchError(f"expected Zi element, got {obj.domain.name}")
            return obj.raw
        if isinstance(obj, int):
            return (int(obj), 0)
        if (
            isinstance(obj, tuple)
            and len(obj) == 2
            and all(isinstance(c, int) for c in obj)
        ):
            return (int(obj[0]), int(obj[1]))
        raise TypeError(f"cannot interpret {obj!r} as a Gaussian integer")

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _neg(self, a):
        return (-a[0], -a[1])

    def _mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def _is_zero(self, a):
        return a == (0, 0)

    def _norm(self, a):
        return a[0] * a[0] + a[1] * a[1]

    def _is_unit(self, a):
        return self._norm(a) == 1

    def _divexact(self, a, b):
        n = self._norm(b)
        if n == 0:
            raise ExactDivisionError("division by zero")
        # a / b = a * conj(b) / norm(b)
        nre = a[0] * b[0] + a[1] * b[1]
        nim = a[1] * b[0] - a[0] * b[1]
        if nre % n or nim % n:
            raise ExactDivisionError(f"{self._format(b)} does not divide {self._format(a)}")
        return (nre // n, nim // n)

    def _round_quotient(self, a, b):
        n = self._norm(b)
        if n == 0:
            raise ExactDivisionError("division by zero")
        nre = a[0] * b[0] + a[1] * b[1]
        nim = a[1] * b[0] - a[0] * b[1]
        return (
            _round_half_toward_zero(nre, n),
            _round_half_toward_zero(nim, n),
        )

    def _gcd(self, a, b):
        # Euclidean algorithm with nearest-rounding division; the remainder
        # norm drops to at most half, so this terminates.
        while not self._is_zero(b):
            q = self._round_quotient(a, b)
            a, b = b, self._add(a, self._neg(self._mul(b, q)))
        if not self._is_zero(a):
            a = self._mul(a, self._normalizing_unit(a))
        return a

    def _normalizing_unit(self, a):
        for u in self._UNITS:
            c = self._mul(a, u)
            if c[0] > 0 and c[1] >= 0:
                return u
        raise ZeroDenominatorError("zero has no normalizing unit")

    def _sort_key(self, a):
        return a

    def _format(self, a):
        re, im = a
        if im == 0:
            return str(re)
        if im == 1:
            tail = "i"
        elif im == -1:
            tail = "-i"
        else:
            tail = f"{im}i"
        if re == 0:
            return tail
        return f"{re}+{tail}" if im > 0 else f"{re}{tail}"

    def _random_raw(self, rng, bound):
        return (rng.randint(-bound, bound), rng.randint(-bound, bound))

    def _box_raws(self, bound):
        return (
            (re, im)
            for re in range(-bound, bound + 1)
            for im in range(-bound, bound + 1)
        )

    def _box_count(self, bound):
        return max(0, 2 * bound + 1) ** 2

    def _graded_raws(self, bound):
        # one column per real part, each already in (norm, im) order; the
        # merge interleaves the columns by (norm, re, im)
        ims = list(ZZ._graded_raws(bound))

        def column(re):
            return ((re * re + im * im, (re, im)) for im in ims)

        for _, a in heapq.merge(*map(column, range(-bound, bound + 1))):
            yield a

    def _denominator_count(self, height):
        # (re, im) with re >= 1, im >= 0 and 2 <= re^2 + im^2 <= height
        return sum(
            math.isqrt(height - re * re) + (0 if re == 1 else 1)
            for re in range(1, math.isqrt(max(height, 0)) + 1)
        )

    def _denominator_raws(self, height):
        out = []
        side = math.isqrt(height)
        for re in range(1, side + 1):
            for im in range(0, side + 1):
                if 2 <= re * re + im * im <= height:
                    out.append((re, im))
        out.sort(key=lambda a: (self._norm(a), a))
        return out

    def _offset_raws(self, window):
        side = math.isqrt(window)
        return [
            (re, im)
            for re in range(-side, side + 1)
            for im in range(-side, side + 1)
            if re * re + im * im <= window
        ]

    def _norm_bounded_raws(self, bound):
        side = math.isqrt(bound)
        return [
            (re, im)
            for re in range(-side, side + 1)
            for im in range(-side, side + 1)
            if 0 < re * re + im * im <= bound
        ]

    def _box_radius(self, a):
        return max(abs(a[0]), abs(a[1]))


class PrimeFieldPolynomials(Domain):
    """F_p[t] as coefficient tuples in ascending degree, no trailing zero.

    The norm of a nonzero polynomial is p^deg; constants are the units.
    """

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"characteristic must be an integer >= 2, got {p!r}")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"{p} is not prime (divisible by {d})")
            d += 1
        self.p = p
        self.name = f"Fpt:{p}"

    def __eq__(self, other):
        return type(self) is type(other) and self.p == other.p

    def __hash__(self):
        return hash((type(self), self.p))

    @staticmethod
    def _strip(coeffs):
        i = len(coeffs)
        while i and coeffs[i - 1] == 0:
            i -= 1
        return tuple(coeffs[:i])

    def coerce_raw(self, obj):
        if isinstance(obj, DomainElement):
            if obj.domain != self:
                raise DomainMismatchError(
                    f"expected {self.name} element, got {obj.domain.name}"
                )
            return obj.raw
        if isinstance(obj, int):
            c = obj % self.p
            return (c,) if c else ()
        if isinstance(obj, tuple) and all(isinstance(c, int) for c in obj):
            return self._strip([c % self.p for c in obj])
        raise TypeError(f"cannot interpret {obj!r} as an element of {self.name}")

    def _add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return self._strip(out)

    def _neg(self, a):
        return tuple((-c) % self.p for c in a)

    def _mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % self.p
        return self._strip(out)

    def _is_zero(self, a):
        return a == ()

    def _norm(self, a):
        return 0 if not a else self.p ** (len(a) - 1)

    def _is_unit(self, a):
        return len(a) == 1

    def _divmod(self, a, b):
        if not b:
            raise ExactDivisionError("division by zero")
        r = list(a)
        db = len(b) - 1
        inv = pow(b[-1], -1, self.p)
        q = [0] * max(0, len(a) - db)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i]
            if c:
                factor = (c * inv) % self.p
                q[i - db] = factor
                for j, cb in enumerate(b):
                    r[i - db + j] = (r[i - db + j] - factor * cb) % self.p
        return self._strip(q), self._strip(r)

    def _divexact(self, a, b):
        q, r = self._divmod(a, b)
        if r:
            raise ExactDivisionError(f"{self._format(b)} does not divide {self._format(a)}")
        return q

    def _round_quotient(self, a, b):
        # polynomial part: the remainder has degree < deg b, hence norm < 1
        # after dividing by b
        return self._divmod(a, b)[0]

    def _gcd(self, a, b):
        while b:
            a, b = b, self._divmod(a, b)[1]
        if a:
            a = self._mul(a, self._normalizing_unit(a))
        return a

    def _normalizing_unit(self, a):
        if not a:
            raise ZeroDenominatorError("zero has no normalizing unit")
        return (pow(a[-1], -1, self.p),)

    def _sort_key(self, a):
        return (len(a), tuple(reversed(a)))

    def _format(self, a):
        if not a:
            return "0"
        pieces = []
        for k in range(len(a) - 1, -1, -1):
            c = a[k]
            if not c:
                continue
            if k == 0:
                pieces.append(str(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                pieces.append(var if c == 1 else f"{c}*{var}")
        return "+".join(pieces)

    def _random_raw(self, rng, bound):
        deg = rng.randint(0, max(0, bound))
        return self._strip([rng.randrange(self.p) for _ in range(deg + 1)])

    def _box_raws(self, bound):
        yield ()
        for deg in range(0, bound + 1):
            for lead in range(1, self.p):
                for rest in product(range(self.p), repeat=deg):
                    yield rest + (lead,)

    def _box_count(self, bound):
        return self.p ** max(0, bound + 1)

    def _graded_raws(self, bound):
        # sort key (len, reversed coefficients): by degree, then leading
        # coefficient, then the lower coefficients from the top down
        yield ()
        for deg in range(0, bound + 1):
            for lead in range(1, self.p):
                for rest in product(range(self.p), repeat=deg):
                    yield rest[::-1] + (lead,)

    def _denominator_raws(self, height):
        for deg in range(1, height + 1):
            for rest in product(range(self.p), repeat=deg):
                yield rest + (1,)

    def _denominator_count(self, height):
        return sum(self.p ** deg for deg in range(1, height + 1))

    def _offset_raws(self, window):
        if window <= 0:
            return [()]
        return list(self._box_raws(window - 1))

    def _norm_bounded_raws(self, bound):
        return [a for a in self._box_raws(bound) if a]

    def _box_radius(self, a):
        return max(len(a) - 1, 0)


ZZ = RationalIntegers()
ZI = GaussianIntegers()


@lru_cache(maxsize=None)
def GFpT(p: int) -> PrimeFieldPolynomials:
    """The polynomial ring F_p[t]; instances are cached per characteristic."""
    return PrimeFieldPolynomials(p)


def domain_from_name(text: str) -> Domain:
    """Resolve a domain tag: ``Z``, ``Zi``, or ``Fpt:<p>``."""
    if text == "Z":
        return ZZ
    if text == "Zi":
        return ZI
    if text.startswith("Fpt:"):
        try:
            p = int(text[4:])
        except ValueError:
            raise ValueError(f"bad characteristic in {text!r}") from None
        return GFpT(p)
    raise ValueError(f"unknown domain {text!r} (expected Z, Zi, or Fpt:<p>)")


class FractionElement:
    """An element a/b of the fraction field, kept in canonical form.

    Canonical means gcd(num, den) is a unit and the denominator is the
    normalized associate (positive / first-quadrant / monic), so equal
    fractions have equal representations.  Integral elements always have
    denominator exactly 1.
    """

    __slots__ = ("domain", "num", "den")

    def __init__(self, domain: Domain, num, den):
        n = domain.coerce_raw(num)
        d = domain.coerce_raw(den)
        if domain._is_zero(d):
            raise ZeroDenominatorError("fraction with zero denominator")
        g = domain._gcd(d, n)
        if not domain._is_unit(g):
            n = domain._divexact(n, g)
            d = domain._divexact(d, g)
        u = domain._normalizing_unit(d)
        if u != domain.coerce_raw(1):
            n = domain._mul(n, u)
            d = domain._mul(d, u)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "num", DomainElement(domain, n))
        object.__setattr__(self, "den", DomainElement(domain, d))

    def __setattr__(self, name, value):
        raise AttributeError("FractionElement is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_integral(self) -> bool:
        return self.den.raw == self.domain.coerce_raw(1)

    def to_element(self) -> DomainElement:
        if not self.is_integral():
            raise ValueNotIntegralError(f"{self} is not in the base ring")
        return self.num

    def ext_norm(self) -> Fraction:
        return Fraction(self.num.norm(), self.den.norm())

    def __add__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
        if other.domain != self.domain:
            raise DomainMismatchError("fraction domains differ")
        return FractionElement(
            self.domain,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __neg__(self):
        return FractionElement(self.domain, -self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
        if other.domain != self.domain:
            raise DomainMismatchError("fraction domains differ")
        return FractionElement(self.domain, self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        if isinstance(other, FractionElement):
            return (
                self.domain == other.domain
                and self.num == other.num
                and self.den == other.den
            )
        if isinstance(other, (DomainElement, int)):
            return self.is_integral() and self.num == other
        return NotImplemented

    def __hash__(self):
        return hash((self.domain, self.num.raw, self.den.raw))

    def __str__(self):
        if self.is_integral():
            return str(self.num)
        return f"{self.num}/{self.den}"

    __repr__ = __str__


class FractionPoint:
    """A point of K^d stored as a numerator vector over one denominator.

    Construction canonicalizes: the gcd of all numerators and the
    denominator is divided out and the denominator is normalized, so a
    point is integral exactly when its denominator is 1.
    """

    __slots__ = ("domain", "nums", "den")

    def __init__(self, domain: Domain, nums: Iterable, den):
        raws = [domain.coerce_raw(n) for n in nums]
        if not raws:
            raise DimensionMismatchError("a point needs at least one coordinate")
        d = domain.coerce_raw(den)
        if domain._is_zero(d):
            raise ZeroDenominatorError("point with zero denominator")
        g = d
        for r in raws:
            g = domain._gcd(g, r)
        if not domain._is_unit(g):
            raws = [domain._divexact(r, g) for r in raws]
            d = domain._divexact(d, g)
        u = domain._normalizing_unit(d)
        if u != domain.coerce_raw(1):
            raws = [domain._mul(r, u) for r in raws]
            d = domain._mul(d, u)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(
            self, "nums", tuple(DomainElement(domain, r) for r in raws)
        )
        object.__setattr__(self, "den", DomainElement(domain, d))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPoint is immutable")

    @property
    def dim(self) -> int:
        return len(self.nums)

    def coord(self, i: int) -> FractionElement:
        return FractionElement(self.domain, self.nums[i], self.den)

    def is_integral(self) -> bool:
        return self.den.raw == self.domain.coerce_raw(1)

    def integral_point(self) -> Tuple[DomainElement, ...]:
        if not self.is_integral():
            raise ValueNotIntegralError(f"{self} is not integral")
        return self.nums

    def __eq__(self, other):
        if not isinstance(other, FractionPoint):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.domain, tuple(n.raw for n in self.nums), self.den.raw))

    def __str__(self):
        return ",".join(str(n) for n in self.nums) + f"/{self.den}"

    __repr__ = __str__


# -- spec-level operation names ------------------------------------------


def add(u: DomainElement, v: DomainElement) -> DomainElement:
    return u + v


def mul(u: DomainElement, v: DomainElement) -> DomainElement:
    return u * v


def norm(u: DomainElement) -> int:
    return u.norm()


def is_unit(u: DomainElement) -> bool:
    return u.is_unit()


def ext_norm(x: FractionElement) -> Fraction:
    return x.ext_norm()


def reduce_point(a: Iterable, b) -> FractionPoint:
    """Canonical FractionPoint equal to a/b; the domain is inferred from the
    first DomainElement found among the arguments."""
    entries = list(a)
    dom = None
    for cand in entries + [b]:
        if isinstance(cand, DomainElement):
            dom = cand.domain
            break
        if isinstance(cand, FractionElement):
            dom = cand.domain
            break
    if dom is None:
        raise TypeError("reduce_point needs at least one DomainElement to infer the domain")
    return FractionPoint(dom, entries, b)


def is_integral(x) -> bool:
    return x.is_integral()


# -- norm-axiom spot checks ------------------------------------------------


@dataclass(frozen=True)
class NormAxiomReport:
    checked: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_norm_axioms(
    domain: Domain, samples: int = 1000, seed: int = 0, bound: int = None
) -> NormAxiomReport:
    """Sampled verification of the norm axioms and their consequences.

    Per sample pair (u, v): norm vanishes exactly at zero, the norm is
    multiplicative, nonzero elements have nonzero product, units have norm
    one, and the fraction-field extension norm(a)/norm(b) is multiplicative
    and agrees with the ring norm on denominators equal to 1.
    """
    if bound is None:
        bound = 8 if isinstance(domain, PrimeFieldPolynomials) else 10**6
    rng = random.Random(seed)
    failures = []

    def bad(msg):
        if len(failures) < 50:
            failures.append(msg)

    if domain.one.norm() != 1:
        bad("norm(1) != 1")
    if not (-domain.one).is_unit() or (-domain.one).norm() != 1:
        bad("norm(-1) != 1 or -1 not a unit")

    for k in range(samples):
        u = domain.random_element(rng, bound)
        v = domain.random_element(rng, bound)
        if (u.norm() == 0) != u.is_zero():
            bad(f"sample {k}: (N0) fails at {u}")
        if (u * v).norm() != u.norm() * v.norm():
            bad(f"sample {k}: (N1) fails at {u}, {v}")
        if u.is_unit() and u.norm() != 1:
            bad(f"sample {k}: unit {u} has norm {u.norm()}")
        if not u.is_zero() and not v.is_zero():
            if (u * v).is_zero():
                bad(f"sample {k}: zero divisors {u}, {v}")
            x = FractionElement(domain, u, v)
            if x.ext_norm() != Fraction(u.norm(), v.norm()):
                bad(f"sample {k}: extension norm wrong at {x}")
            y = FractionElement(domain, v, u)
            if (x * y).ext_norm() != x.ext_norm() * y.ext_norm():
                bad(f"sample {k}: extension norm not multiplicative at {x}, {y}")
        if FractionElement(domain, u, 1).ext_norm() != u.norm():
            bad(f"sample {k}: extension norm disagrees with norm at {u}")

    return NormAxiomReport(samples, tuple(failures))
