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
fails loudly instead of coercing silently; elements of different rings
compare unequal.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import (
    DimensionMismatchError,
    DomainMismatchError,
    ExactDivisionError,
    ValueNotIntegralError,
    ZeroDenominatorError,
)


class _Frozen:
    """Base of the package's immutable values: the result records, ring
    elements, fractions, points and polynomials.  Assigning or deleting
    any attribute raises AttributeError; each class writes its own fields
    once, at construction, past this refusal."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Record(_Frozen):
    """Base of the package's frozen result records.

    A subclass names its fields by annotating them in its class body, in
    order; the annotations stay unevaluated strings and only their names
    are read.  Records take their fields positionally or by keyword, every
    field exactly once, and compare, hash and print by the field values in
    declaration order, with equality only between records of one class.
    Like every _Frozen value, a record refuses assignment and deletion.
    The values live in the instance __dict__, written there once by
    __init__, so copy and pickle need no hook; the one exception is a
    DescentTrace from descend, which holds raw steps until steps is read
    and so reads its values and pickles through its own hooks.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            self.__dict__.update(zip(fields, args))
            return
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)} positionally")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unknown field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got field {key!r} twice")
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() is missing field(s) {', '.join(missing)}")
        self.__dict__.update((f, values[f]) for f in fields)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class _Report(_Record):
    """Base of the check reports: a report is ok when failures is empty."""

    @property
    def ok(self) -> bool:
        return not self.failures


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

    Adding another normed domain means subclassing this; the rest of the
    package only talks to the protocol below.

    A ring sets name, _ZERO, _ONE and _GENERATOR (the name of the literal
    for (0, 1), or None), and implements the raw-value protocol: _coerce,
    _add, _neg, _mul, _norm, _is_unit, _quotient_or_none, _gcd,
    _normalizing_unit, _round_quotient, _format and _random_raw; and the
    bounded enumerations: _box_raws, _box_count, _denominator_raws,
    _denominator_count, _offset_raws, _offset_count and _box_radius.

    It inherits coerce_raw (the domain check of a DomainElement, then
    _coerce), _is_zero (equality with _ZERO), _divexact (from
    _quotient_or_none), _content (a fold of _gcd; override it when the
    ring has a cheaper rule), _sort_key (the identity; override it when
    raws do not compare in the ring's order), _graded_raws (the box
    sorted by (_norm, _sort_key), so Z's runs 0, -1, 1, -2, 2, ...;
    F_p[t] streams it), _sqrt (None, so the zero search tests each
    fiber's solved axis; Z and Z[i] override it with a square root of a
    raw, or None, and solve fibers exactly), equality and hashing by
    (type, name), and the element-level API.
    """

    name = "?"

    # -- raw-value protocol, implemented by subclasses -------------------

    _ZERO = _ONE = None  # the raw zero and one
    _GENERATOR = None  # the literal that names the raw (0, 1), if any

    def coerce_raw(self, obj):
        """The raw value of obj: a DomainElement of this domain, or an int
        or tuple literal the ring accepts (TypeError otherwise)."""
        if isinstance(obj, DomainElement):
            if obj.domain != self:
                raise DomainMismatchError(f"expected {self.name} element, got {obj.domain.name}")
            return obj.raw
        return self._coerce(obj)

    def _coerce(self, obj):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        return a == self._ZERO

    def _norm(self, a) -> int:
        raise NotImplementedError

    def _is_unit(self, a) -> bool:
        raise NotImplementedError

    def _quotient_or_none(self, a, b):
        """a / b when the quotient lies in the ring, else None; b nonzero.
        For divisibility tests that fail more often than not."""
        raise NotImplementedError

    def _divexact(self, a, b):
        """a / b when the quotient lies in the ring; ExactDivisionError otherwise."""
        if b == self._ZERO:
            raise ExactDivisionError("division by zero")
        q = self._quotient_or_none(a, b)
        if q is None:
            raise ExactDivisionError("inexact division")
        return q

    def _gcd(self, a, b):
        """The canonical-associate gcd of a and b (nonzero if either is)."""
        raise NotImplementedError

    def _content(self, a, rest):
        """The gcd of a and every raw of rest (rest nonempty): the
        canonical associate, nonzero if any operand is.  This default folds
        _gcd and stops at the first unit, since the gcd of the one with
        anything is the one."""
        g = a
        for r in rest:
            g = self._gcd(g, r)
            if self._is_unit(g):
                break
        return g

    def _normalizing_unit(self, a):
        """Unit u such that a*u is the canonical associate of a (a nonzero)."""
        raise NotImplementedError

    def _round_quotient(self, a, b):
        """Ring element nearest to a/b; see each domain for the tie rule."""
        raise NotImplementedError

    def _sort_key(self, a):
        return a

    _sqrt = None  # or a method: a square root of a raw, or None

    def _format(self, a) -> str:
        raise NotImplementedError

    def _random_raw(self, rng: random.Random, bound: int):
        raise NotImplementedError

    # enumerations (raw values, deterministic order) ----------------------
    #
    # _box_raws and _denominator_raws may be lazy iterables; _box_count,
    # _denominator_count and _offset_count give the lengths of the three
    # enumerations in closed form, so every search is sized before anything
    # is generated.  A count too costly to take (past _COUNT_MAX_SIDE or
    # _COUNT_MAX_BITS) is math.inf.

    def _box_raws(self, bound: int):
        """Point coordinates within the box: |a| <= bound for Z, |re|,|im| <=
        bound for Z[i], deg <= bound for F_p[t]."""
        raise NotImplementedError

    def _box_count(self, bound: int) -> int:
        raise NotImplementedError

    def _graded_raws(self, bound: int):
        """The _box_raws elements in (norm, sort key) order, the graded order
        of every zero search; a ring may stream it instead (F_p[t] does)."""
        norm, key = self._norm, self._sort_key
        return sorted(self._box_raws(bound), key=lambda a: (norm(a), key(a)))

    def _denominator_raws(self, height: int):
        """Canonical non-unit denominators of norm <= height (degree <=
        height for F_p[t])."""
        raise NotImplementedError

    def _denominator_count(self, height: int) -> int:
        raise NotImplementedError

    def _offset_raws(self, window: int) -> list:
        """Offsets the oracle scans around a rounded point: norm <= window
        for Z and Z[i], degree < window for F_p[t].  Always contains 0."""
        raise NotImplementedError

    def _offset_count(self, window: int) -> int:
        raise NotImplementedError

    def _box_radius(self, a) -> int:
        """Smallest bound whose _box_raws enumeration contains a."""
        raise NotImplementedError

    # -- shared element-level API ----------------------------------------

    def element(self, obj) -> "DomainElement":
        return DomainElement(self, self.coerce_raw(obj))

    @property
    def zero(self) -> "DomainElement":
        return DomainElement(self, self._ZERO)

    @property
    def one(self) -> "DomainElement":
        return DomainElement(self, self._ONE)

    def random_element(self, rng: random.Random, bound: int) -> "DomainElement":
        """Seeded random element; bound is a magnitude bound (Z, Z[i]) or a
        degree bound (F_p[t])."""
        return DomainElement(self, self._random_raw(rng, bound))

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash((type(self), self.name))

    def __repr__(self):
        return f"<domain {self.name}>"


class DomainElement(_Frozen):
    """A ring element tagged with its domain.  Immutable."""

    __slots__ = ("domain", "raw")

    def __init__(self, domain: Domain, raw):
        # the slots' own setters, since __setattr__ refuses assignment
        _set_element_domain(self, domain)
        _set_element_raw(self, raw)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return (DomainElement, (self.domain, self.raw))

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

    def __eq__(self, other):
        # elements of different rings are unequal, not an error; int operands
        # compare through coercion (test convenience); note that hash(element)
        # is deliberately not hash(int), so do not mix the two as keys of one
        # dict.
        if isinstance(other, DomainElement):
            return self.domain == other.domain and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == self.domain.coerce_raw(other)
        return NotImplemented

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

    def __str__(self):
        return self.domain._format(self.raw)

    __repr__ = __str__


_set_element_domain = DomainElement.domain.__set__
_set_element_raw = DomainElement.raw.__set__


class RationalIntegers(Domain):
    """Z with the absolute-value norm."""

    name = "Z"
    _ZERO, _ONE = 0, 1

    def _coerce(self, obj):
        if isinstance(obj, int):
            return int(obj)
        raise TypeError(f"cannot interpret {obj!r} as an integer")

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _norm(self, a):
        return abs(a)

    def _is_unit(self, a):
        return a == 1 or a == -1

    def _quotient_or_none(self, a, b):
        q, r = divmod(a, b)
        return None if r else q

    def _gcd(self, a, b):
        return math.gcd(a, b)

    def _content(self, a, rest):
        return math.gcd(a, *rest)

    def _normalizing_unit(self, a):
        return -1 if a < 0 else 1

    def _sqrt(self, a):
        if a < 0:
            return None
        r = math.isqrt(a)
        return r if r * r == a else None

    def _round_quotient(self, a, b):
        if b < 0:
            a, b = -a, -b
        return _round_half_toward_zero(a, b)

    def _format(self, a):
        return str(a)

    def _random_raw(self, rng, bound):
        return rng.randint(-bound, bound)

    def _box_raws(self, bound):
        return range(-bound, bound + 1)

    def _box_count(self, bound):
        return max(0, 2 * bound + 1)

    def _denominator_raws(self, height):
        return range(2, height + 1)

    def _denominator_count(self, height):
        return max(0, height - 1)

    def _offset_raws(self, window):
        return list(range(-window, window + 1))

    def _offset_count(self, window):
        return max(0, 2 * window + 1)

    def _box_radius(self, a):
        return abs(a)


# Counts are not taken past these: a Z[i] lattice count costs one isqrt per
# column of the disk (about 0.1 s at this side on CPython 3.11), and an
# F_p[t] count has about bound*log2(p) bits.  Past them, the count methods
# return math.inf.  Both lie far above any search budget, and the bits one
# above Python's default 4300-digit int-to-text limit, so every F_p[t]
# count that can be printed is still taken exactly.
_COUNT_MAX_SIDE = 1 << 18
_COUNT_MAX_BITS = 1 << 16


def _zi_euclid(ar, ai, br, bi):
    """A gcd of ar + ai*i and br + bi*i, up to a unit: Euclid with the
    nearest-rounding division of GaussianIntegers._round_quotient (ties
    toward zero), inline on ints.  The remainder norm drops to at most
    half, so this terminates."""
    while br or bi:
        n = br * br + bi * bi
        qr, rr = divmod(ar * br + ai * bi, n)
        qi, ri = divmod(ai * br - ar * bi, n)
        if 2 * rr > n or (2 * rr == n and qr < 0):
            qr += 1
        if 2 * ri > n or (2 * ri == n and qi < 0):
            qi += 1
        ar, ai, br, bi = br, bi, ar - (br * qr - bi * qi), ai - (br * qi + bi * qr)
    return ar, ai


class GaussianIntegers(Domain):
    """Z[i] as (re, im) pairs, norm re^2 + im^2."""

    name = "Zi"
    _ZERO, _ONE = (0, 0), (1, 0)
    _GENERATOR = "i"

    def _coerce(self, obj):
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

    def _norm(self, a):
        return a[0] * a[0] + a[1] * a[1]

    def _is_unit(self, a):
        return self._norm(a) == 1

    def _quotient_or_none(self, a, b):
        # a / b = a * conj(b) / norm(b)
        n = b[0] * b[0] + b[1] * b[1]
        qr, rr = divmod(a[0] * b[0] + a[1] * b[1], n)
        if rr:
            return None
        qi, ri = divmod(a[1] * b[0] - a[0] * b[1], n)
        return None if ri else (qr, qi)

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
        return self._content(a, (b,))

    def _content(self, a, rest):
        # A common divisor g divides N(g), which divides every norm and so
        # m, the gcd of all the norms: coprime norms prove the content a
        # unit without a Euclid step.  Otherwise the content is
        # gcd(m, a, *rest), one Euclid chain on residues mod m: it starts
        # from (m, 0) and a mod m, and each r mod m folds into the running
        # gcd, which divides m, so r mod m gives the same gcd as r.  No
        # operand exceeds m, and the result is normalized once.
        m = a[0] * a[0] + a[1] * a[1]
        for r in rest:
            m = math.gcd(m, r[0] * r[0] + r[1] * r[1])
            if m == 1:
                return self._ONE
        if not m:
            return self._ZERO
        g = _zi_euclid(m, 0, a[0] % m, a[1] % m)
        for r in rest:
            if g[0] * g[0] + g[1] * g[1] == 1:
                return self._ONE
            g = _zi_euclid(*g, r[0] % m, r[1] % m)
        return self._mul(g, self._normalizing_unit(g))

    def _normalizing_unit(self, a):
        # the unit that turns a into its associate with re > 0, im >= 0:
        # 1, i, -1 or -i by the quadrant a lies in
        re, im = a
        if re > 0 and im >= 0:
            return (1, 0)
        if im < 0 and re >= 0:
            return (0, 1)
        if re < 0 and im <= 0:
            return (-1, 0)
        if im > 0:
            return (0, -1)
        raise ZeroDenominatorError("zero has no normalizing unit")

    def _sqrt(self, a):
        # (u + v*i)^2 = x + y*i means u^2 - v^2 = x and 2*u*v = y, and then
        # u^2 + v^2 = m with m^2 = x^2 + y^2; so u^2 = (m + x)/2,
        # v^2 = (m - x)/2 and v takes the sign of y
        x, y = a
        n = x * x + y * y
        m = math.isqrt(n)
        if m * m != n or (m + x) & 1:
            return None
        u = math.isqrt((m + x) >> 1)
        v = math.isqrt((m - x) >> 1)
        if 2 * u * u != m + x or 2 * v * v != m - x:
            return None
        return (u, -v if y < 0 else v)

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

    def _denominator_count(self, height):
        # (re, im) with re >= 1, im >= 0 and 2 <= re^2 + im^2 <= height
        side = math.isqrt(max(height, 0))
        if side > _COUNT_MAX_SIDE:
            return math.inf
        return sum(
            math.isqrt(height - re * re) + (0 if re == 1 else 1)
            for re in range(1, side + 1)
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

    def _offset_count(self, window):
        # lattice points of the disk re^2 + im^2 <= window, column by column
        side = math.isqrt(window)
        if side > _COUNT_MAX_SIDE:
            return math.inf
        return sum(2 * math.isqrt(window - re * re) + 1 for re in range(-side, side + 1))

    def _box_radius(self, a):
        return max(abs(a[0]), abs(a[1]))


_TRIAL_LIMIT = 1 << 20
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Sorenson and Webster, "Strong pseudoprimes to twelve prime bases" (Math.
# Comp. 2017): every composite below this bound fails a strong
# probable-prime test to at least one of the bases above.
_SPRP_BOUND = 3317044064679887385961981


def _check_prime(p) -> None:
    """Raise ValueError unless p is provably prime.

    Trial division below _TRIAL_LIMIT names the smallest divisor and
    settles every p < 2^40.  Beyond that a strong probable-prime test to
    _SPRP_BASES is a proof below _SPRP_BOUND; larger p are refused.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"characteristic must be an integer >= 2, got {p!r}")
    d = 2
    while d * d <= p and d < _TRIAL_LIMIT:
        if p % d == 0:
            raise ValueError(f"{p} is not prime (divisible by {d})")
        d += 1 if d == 2 else 2
    if d * d > p:
        return
    if p >= _SPRP_BOUND:
        raise ValueError(
            f"characteristic {p} is too large: primality is decided only below {_SPRP_BOUND}"
        )
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in _SPRP_BASES:
        x = pow(a, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not prime (fails a strong probable-prime test to base {a})")


def _two_byte_slots(coeffs) -> int:
    """The int whose base-2^16 digits are coeffs (each below 256), lowest first."""
    packed = bytearray(2 * len(coeffs))
    packed[::2] = bytes(coeffs)
    return int.from_bytes(packed, "little")


class PrimeFieldPolynomials(Domain):
    """F_p[t] as coefficient tuples in ascending degree, no trailing zero.

    The norm of a nonzero polynomial is p^deg; constants are the units.

    The kernels pack tuples into integers inside each call, one byte per
    coefficient (int.from_bytes(bytes(a), "little")), and return tuples of
    ints again.  Unless both factors are constants, multiplication packs
    each factor whenever no product coefficient can exceed one byte
    (min(len a, len b) * (p-1)^2 < 256: up to 255 coefficients for p = 2,
    63 for p = 3, 15 for p = 5, 7 for p = 7, 2 for p = 11, 1 for p = 13),
    so the work is one C-level bigint product (Kronecker substitution)
    whose bytes are reduced mod p by one bytes.translate through a
    256-entry table.  Longer F_2[t] factors take two-byte slots, exact
    while the shorter has fewer than 65,536 coefficients, and keep each
    slot's low byte, which has the slot's parity.  Otherwise a product
    costs O(len a * len b) coefficient operations in Python.  For p = 2
    addition is the XOR of the packed operands, negation the identity, and
    long division and gcd run on packed ints, one shift and one XOR per
    quotient term.  For odd p, addition and division loop over
    coefficients in Python.
    """

    _ZERO, _ONE = (), (1,)
    _GENERATOR = "t"

    def __init__(self, p: int):
        _check_prime(p)
        self.p = p
        self.name = f"Fpt:{p}"
        # c % p for every byte c, the reduction of a Kronecker product
        self._byte_residues = bytes(c % p for c in range(256))

    @staticmethod
    def _strip(coeffs):
        i = len(coeffs)
        while i and coeffs[i - 1] == 0:
            i -= 1
        return tuple(coeffs[:i])

    def _coerce(self, obj):
        if isinstance(obj, int):
            c = obj % self.p
            return (c,) if c else ()
        if isinstance(obj, tuple) and all(isinstance(c, int) for c in obj):
            return self._strip([c % self.p for c in obj])
        raise TypeError(f"cannot interpret {obj!r} as an element of {self.name}")

    def _add(self, a, b):
        if self.p == 2:
            # coefficients are bits: XOR the packed operands
            s = int.from_bytes(bytes(a), "little") ^ int.from_bytes(bytes(b), "little")
            return tuple(s.to_bytes((s.bit_length() + 7) >> 3, "little"))
        if len(a) < len(b):
            a, b = b, a
        p = self.p
        out = [(x + y) % p for x, y in zip(a, b)]
        if len(a) > len(b):
            # a's leading coefficient survives, so nothing to strip
            return tuple(out) + a[len(b):]
        return self._strip(out)

    def _neg(self, a):
        if self.p == 2:
            return a
        return tuple((-c) % self.p for c in a)

    def _mul(self, a, b):
        if not a or not b:
            return ()
        p = self.p
        la, lb = len(a), len(b)
        if la == lb == 1:
            # two constants: packing costs more than the one product
            return ((a[0] * b[0]) % p,)
        n = la + lb - 1
        # the top coefficient is lead(a) * lead(b), nonzero mod p, so neither
        # path has a trailing zero to strip
        if min(la, lb) * (p - 1) ** 2 < 256:
            # Kronecker substitution: read each factor as the base-256 digits
            # of one integer, multiply once, reduce each digit mod p.  A
            # product digit is a sum of at most min(la, lb) terms below p^2,
            # so under 256 it never carries.
            prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
            return tuple(prod.to_bytes(n, "little").translate(self._byte_residues))
        if p == 2 and min(la, lb) < 65536:
            # two-byte slots: a digit is at most min(la, lb) < 2^16, and its
            # parity, the coefficient, is the parity of its low byte
            prod = _two_byte_slots(a) * _two_byte_slots(b)
            return tuple(prod.to_bytes(2 * n, "little")[::2].translate(self._byte_residues))
        out = [0] * n
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % p
        return tuple(out)

    def _norm(self, a):
        return 0 if not a else self.p ** (len(a) - 1)

    def _is_unit(self, a):
        return len(a) == 1

    def _divmod(self, a, b):
        if not b:
            raise ExactDivisionError("division by zero")
        db = len(b) - 1
        if len(a) <= db:
            return (), a
        p = self.p
        if p == 2:
            # on the packed ints the degree of r is (bit_length - 1) / 8, and
            # each quotient term t^k cancels r's leading term by one XOR with
            # b shifted k bytes
            r = int.from_bytes(bytes(a), "little")
            bp = int.from_bytes(bytes(b), "little")
            nb, n = bp.bit_length(), r.bit_length()
            q = bytearray(len(a) - db)
            while n >= nb:
                r ^= bp << (n - nb)
                q[(n - nb) >> 3] = 1
                n = r.bit_length()
            return tuple(q), tuple(r.to_bytes((n + 7) >> 3, "little"))
        inv = pow(b[-1], -1, p)
        # the leading term cancels by construction, so only the divisor's
        # nonzero lower coefficients update the remainder
        lower = [(j, cb) for j, cb in enumerate(b[:db]) if cb]
        r = list(a)
        q = [0] * (len(a) - db)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i]
            if c:
                base = i - db
                factor = q[base] = (c * inv) % p
                for j, cb in lower:
                    r[base + j] = (r[base + j] - factor * cb) % p
        return self._strip(q), self._strip(r[:db])

    def _quotient_or_none(self, a, b):
        q, r = self._divmod(a, b)
        return None if r else q

    def _round_quotient(self, a, b):
        # polynomial part: the remainder has degree < deg b, hence norm < 1
        # after dividing by b
        return self._divmod(a, b)[0]

    def _gcd(self, a, b):
        if self.p == 2:
            # Euclid on the packed ints, each remainder as in _divmod; the
            # gcd needs no normalizing, every nonzero F_2[t] raw being monic
            x, y = int.from_bytes(bytes(a), "little"), int.from_bytes(bytes(b), "little")
            while y:
                ny, n = y.bit_length(), x.bit_length()
                while n >= ny:
                    x ^= y << (n - ny)
                    n = x.bit_length()
                x, y = y, x
            return tuple(x.to_bytes((x.bit_length() + 7) >> 3, "little"))
        # Euclid on coefficient lists, remainders only: each leading term
        # of a is popped and cancelled against b's, and the gcd is made
        # monic once at the end
        p = self.p
        a, b = list(a), list(b)
        while b:
            db = len(b) - 1
            inv = pow(b[-1], -1, p)
            while len(a) > db:
                c = a.pop()
                if c:
                    base, factor = len(a) - db, (c * inv) % p
                    for j in range(db):
                        a[base + j] = (a[base + j] - factor * b[j]) % p
            while a and not a[-1]:
                a.pop()
            a, b = b, a
        if not a:
            return ()
        inv = pow(a[-1], -1, p)
        return tuple([(c * inv) % p for c in a])

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

    def _power_count(self, k):
        """p^k, or math.inf when its lower bound 2^(k*(bitlen(p)-1)) is past
        2^_COUNT_MAX_BITS."""
        if k * (self.p.bit_length() - 1) > _COUNT_MAX_BITS:
            return math.inf
        return self.p**k

    def _box_count(self, bound):
        return self._power_count(max(0, bound + 1))

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
        # p + p^2 + ... + p^height monic polynomials
        total = self._power_count(max(0, height) + 1)
        return total if total == math.inf else (total - self.p) // (self.p - 1)

    def _offset_raws(self, window):
        return list(self._box_raws(window - 1))

    def _offset_count(self, window):
        return self._power_count(max(0, window))

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


def _canonical(domain: Domain, nums: list, den, what: str):
    """nums/den with gcd(den, *nums) divided out and den replaced by its
    normalized associate; ZeroDenominatorError when den is zero.  The gcd
    is one Domain._content call, and the division runs only when it is not
    a unit."""
    if domain._is_zero(den):
        raise ZeroDenominatorError(f"{what} with zero denominator")
    g = domain._content(den, nums)
    if not domain._is_unit(g):
        nums = [domain._divexact(r, g) for r in nums]
        den = domain._divexact(den, g)
    u = domain._normalizing_unit(den)
    if u != domain._ONE:
        nums = [domain._mul(r, u) for r in nums]
        den = domain._mul(den, u)
    return nums, den


def _cleared_difference(dom: Domain, a, b, y) -> list:
    """The raw vector a - b*y, which is b*(x - y), for x = a/b; all raws."""
    return [dom._add(n, dom._neg(dom._mul(b, yi))) for n, yi in zip(a, y)]


def _rounded(dom: Domain, a, b) -> tuple[tuple, tuple]:
    """(base, w0) for the raw point a/b: base = round(a/b) coordinatewise
    and the rounding residue w0 = a - b*base, computed nowhere else.  Both
    are tuples, so neither can change after an identity test against base."""
    base = tuple([dom._round_quotient(n, b) for n in a])
    return base, tuple(_cleared_difference(dom, a, b, base))


class FractionElement(_Frozen):
    """An element a/b of the fraction field, kept in canonical form.

    Canonical means gcd(num, den) is a unit and the denominator is the
    normalized associate (positive / first-quadrant / monic), so equal
    fractions have equal representations.  Integral elements always have
    denominator exactly 1.
    """

    __slots__ = ("domain", "num", "den")

    def __init__(self, domain: Domain, num, den):
        (n,), d = _canonical(
            domain, [domain.coerce_raw(num)], domain.coerce_raw(den), "fraction"
        )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "num", DomainElement(domain, n))
        object.__setattr__(self, "den", DomainElement(domain, d))

    def __reduce__(self):
        return (FractionElement, (self.domain, self.num.raw, self.den.raw))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_integral(self) -> bool:
        return self.den.raw == self.domain._ONE

    def to_element(self) -> DomainElement:
        if not self.is_integral():
            raise ValueNotIntegralError(f"{self} is not in the base ring")
        return self.num

    def ext_norm(self) -> Fraction:
        return Fraction(self.num.norm(), self.den.norm())

    def __add__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
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


class FractionPoint(_Frozen):
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
        raws, d = _canonical(domain, raws, domain.coerce_raw(den), "point")
        _set_point_domain(self, domain)
        _set_point_nums(self, tuple(DomainElement(domain, r) for r in raws))
        _set_point_den(self, DomainElement(domain, d))

    @classmethod
    def _trusted(cls, domain: Domain, nums, den) -> "FractionPoint":
        """The point nums/den from raws already in canonical form (gcd a
        unit, den normalized), as enumeration.integral_values and
        enumeration.residue_rows yield them; nothing is re-checked."""
        self = object.__new__(cls)
        _set_point_domain(self, domain)
        _set_point_nums(self, tuple(DomainElement(domain, r) for r in nums))
        _set_point_den(self, DomainElement(domain, den))
        return self

    def __reduce__(self):
        return (FractionPoint, (self.domain, tuple(n.raw for n in self.nums), self.den.raw))

    @property
    def dim(self) -> int:
        return len(self.nums)

    def is_integral(self) -> bool:
        return self.den.raw == self.domain._ONE

    def integral_point(self) -> tuple[DomainElement, ...]:
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


_set_point_domain = FractionPoint.domain.__set__
_set_point_nums = FractionPoint.nums.__set__
_set_point_den = FractionPoint.den.__set__


# -- norm-axiom spot checks ------------------------------------------------


class NormAxiomReport(_Report):
    checked: int
    failures: tuple[str, ...]


def check_norm_axioms(
    domain: Domain, samples: int = 1000, seed: int = 0, bound: int = None
) -> NormAxiomReport:
    """Sampled verification of the norm axioms and their consequences.

    Per sample pair (u, v): norm vanishes exactly at zero, the norm is
    multiplicative, nonzero elements have nonzero product, units have norm
    one, and the fraction-field extension norm(a)/norm(b) is multiplicative
    and agrees with the ring norm on denominators equal to 1.  A negative
    samples or bound raises ValueError before anything is sized.  More than
    SEARCH_BUDGET samples raises SearchBudgetError before any is drawn, and
    so does a samples * cost over it, where cost models the time of one
    sample in units of about 1.4 us (SEARCH_BUDGET units take about 14 s).
    Everywhere a fixed 32 and then, over F_p[t] with n = bound + 1
    coefficients and b = p.bit_length(): b + 3n, plus the products and gcds,
    n^2 * (16 + b)/190 * (p - 1)/p * (1 + n/1024): coefficient pairs, their
    cost growing with p's size, the share of nonzero coefficients, and
    past n ~ 500 the bigint norms and packed products (fitted to per-sample
    times for p from 2 to 82 bits and bound 0 to 2048, within a factor
    0.4-2.2).  Over Z and Z[i] the growth of the bigint products and gcds
    with the bit length s of bound, in w = s // 64 + 1 words: w^2 / 16
    over Z, and s * (5 + w^2 / 50) / 2 over Z[i], whose gcd takes O(s)
    Euclid steps of growing cost.
    """
    from .enumeration import _within_budget  # enumeration imports this module

    fpt = isinstance(domain, PrimeFieldPolynomials)
    if bound is None:
        bound = 8 if fpt else 10**6
    if samples < 0 or bound < 0:
        raise ValueError("samples and bound must be nonnegative")
    _within_budget(samples, "the norm-axiom check")
    if fpt:
        n, b = bound + 1, domain.p.bit_length()
        pairs = n * n * (16 + b) * (domain.p - 1) * (1024 + n)
        cost = 32 + b + 3 * n + pairs // (190 * 1024 * domain.p)
    else:
        s = bound.bit_length()
        w = s // 64 + 1
        if isinstance(domain, GaussianIntegers):
            cost = 32 + s * (5 + w * w // 50) // 2
        else:
            cost = 32 + w * w // 16
    _within_budget(samples * cost, "the norm-axiom check at this element size")
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
