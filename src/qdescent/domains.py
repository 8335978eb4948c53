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


class _Record:
    """Base of the package's frozen result records.

    A subclass names its fields by annotating them in its class body, in
    order; the annotations stay unevaluated strings and only their names
    are read.  Records take their fields positionally or by keyword, every
    field exactly once, and compare, hash and print by the field values in
    declaration order, with equality only between records of one class.
    Assignment and deletion raise AttributeError.  The values live in the
    instance __dict__, so copy and pickle need no hook.
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

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


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

    _ZERO = _ONE = None  # the raw zero and one

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

    def _quotient_or_none(self, a, b):
        """a / b when the quotient lies in the ring, else None; b nonzero.
        For divisibility tests that fail more often than not."""
        try:
            return self._divexact(a, b)
        except ExactDivisionError:
            return None

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
    # _box_raws and _denominator_raws may be lazy iterables; _box_count,
    # _denominator_count and _offset_count give the lengths of the three
    # enumerations in closed form, so every search is sized before anything
    # is generated.

    def _box_raws(self, bound: int):
        """Point coordinates within the box: |a| <= bound for Z, |re|,|im| <=
        bound for Z[i], deg <= bound for F_p[t]."""
        raise NotImplementedError

    def _box_count(self, bound: int) -> int:
        raise NotImplementedError

    def _graded_raws(self, bound: int):
        """The _box_raws elements, lazily, in (norm, sort key) order."""
        raise NotImplementedError

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

    def __str__(self):
        return self.domain._format(self.raw)

    __repr__ = __str__


class RationalIntegers(Domain):
    """Z with the absolute-value norm."""

    name = "Z"
    _ZERO, _ONE = 0, 1

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
            raise ExactDivisionError("inexact division")
        return q

    def _quotient_or_none(self, a, b):
        q, r = divmod(a, b)
        return None if r else q

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

    def _offset_count(self, window):
        return max(0, 2 * window + 1)

    def _box_radius(self, a):
        return abs(a)


class GaussianIntegers(Domain):
    """Z[i] as (re, im) pairs, norm re^2 + im^2."""

    name = "Zi"
    _ZERO, _ONE = (0, 0), (1, 0)

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
            raise ExactDivisionError("inexact division")
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
        # Euclidean algorithm with nearest-rounding division (the rounding
        # of _round_quotient, ties toward zero), inline on ints; the
        # remainder norm drops to at most half, so this terminates.
        ar, ai = a
        br, bi = b
        while br or bi:
            n = br * br + bi * bi
            qr, rr = divmod(ar * br + ai * bi, n)
            qi, ri = divmod(ai * br - ar * bi, n)
            if 2 * rr > n or (2 * rr == n and qr < 0):
                qr += 1
            if 2 * ri > n or (2 * ri == n and qi < 0):
                qi += 1
            ar, ai, br, bi = br, bi, ar - (br * qr - bi * qi), ai - (br * qi + bi * qr)
        # times the unit of _normalizing_unit: the associate with re > 0,
        # im >= 0, picked by the signs
        if ar > 0 and ai >= 0:
            return (ar, ai)
        if ai < 0 and ar >= 0:
            return (-ai, ar)
        if ar < 0 and ai <= 0:
            return (-ar, -ai)
        if ai > 0:
            return (ai, -ar)
        return (0, 0)

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
        # by (norm, re, im)
        return sorted(self._box_raws(bound), key=lambda a: (a[0] * a[0] + a[1] * a[1], a))

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

    def _offset_count(self, window):
        # lattice points of the disk re^2 + im^2 <= window, column by column
        side = math.isqrt(window)
        return sum(2 * math.isqrt(window - re * re) + 1 for re in range(-side, side + 1))

    def _box_radius(self, a):
        return max(abs(a[0]), abs(a[1]))


# F_p[t] products of fewer than this many coefficient pairs use the
# schoolbook loop, larger ones Kronecker substitution with one-byte slots.
# Chosen from a per-call crossover table (CHANGES.md): below it both cost a
# few microseconds; above it the bigint product wins by a growing factor.
_KRONECKER_MIN_TERMS = 32


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


class PrimeFieldPolynomials(Domain):
    """F_p[t] as coefficient tuples in ascending degree, no trailing zero.

    The norm of a nonzero polynomial is p^deg; constants are the units.

    Multiplication costs O(len a * len b) coefficient operations in Python
    below _KRONECKER_MIN_TERMS coefficient pairs, or when a product
    coefficient could exceed one byte (min(len a, len b) * (p-1)^2 > 255).
    Otherwise each factor is packed into one integer (Kronecker
    substitution), so the work is one C-level bigint product plus
    O(len a + len b) packing and reduction.
    """

    _ZERO, _ONE = (), (1,)

    def __init__(self, p: int):
        _check_prime(p)
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
        p = self.p
        out = [(x + y) % p for x, y in zip(a, b)]
        if len(a) > len(b):
            # a's leading coefficient survives, so nothing to strip
            return tuple(out) + a[len(b):]
        return self._strip(out)

    def _neg(self, a):
        return tuple((-c) % self.p for c in a)

    def _mul(self, a, b):
        if not a or not b:
            return ()
        p = self.p
        la, lb = len(a), len(b)
        n = la + lb - 1
        if la * lb >= _KRONECKER_MIN_TERMS and min(la, lb) * (p - 1) ** 2 < 256:
            # Kronecker substitution: read each factor as the base-256 digits
            # of one integer, multiply once, reduce each digit mod p.  A
            # product digit is a sum of at most min(la, lb) terms below p^2,
            # so under 256 it never carries.
            prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
            return self._strip([c % p for c in prod.to_bytes(n, "little")])
        out = [0] * n
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % p
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
        db = len(b) - 1
        if len(a) <= db:
            return (), a
        p = self.p
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

    def _divexact(self, a, b):
        q, r = self._divmod(a, b)
        if r:
            raise ExactDivisionError("inexact division")
        return q

    def _quotient_or_none(self, a, b):
        q, r = self._divmod(a, b)
        return None if r else q

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

    def _offset_count(self, window):
        return self.p ** max(0, window)

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
    normalized associate; ZeroDenominatorError when den is zero."""
    if domain._is_zero(den):
        raise ZeroDenominatorError(f"{what} with zero denominator")
    g = den
    for r in nums:
        g = domain._gcd(g, r)
    if not domain._is_unit(g):
        nums = [domain._divexact(r, g) for r in nums]
        den = domain._divexact(den, g)
    u = domain._normalizing_unit(den)
    if u != domain._ONE:
        nums = [domain._mul(r, u) for r in nums]
        den = domain._mul(den, u)
    return nums, den


class FractionElement:
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

    def __setattr__(self, name, value):
        raise AttributeError("FractionElement is immutable")

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
        raws, d = _canonical(domain, raws, domain.coerce_raw(den), "point")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(
            self, "nums", tuple(DomainElement(domain, r) for r in raws)
        )
        object.__setattr__(self, "den", DomainElement(domain, d))

    @classmethod
    def _trusted(cls, domain: Domain, nums, den) -> "FractionPoint":
        """The point nums/den from raws already in canonical form (gcd a
        unit, den normalized), as enumeration.CanonicalPoints yields them;
        nothing is re-checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "nums", tuple(DomainElement(domain, r) for r in nums))
        object.__setattr__(self, "den", DomainElement(domain, den))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FractionPoint is immutable")

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


# -- norm-axiom spot checks ------------------------------------------------


class NormAxiomReport(_Record):
    checked: int
    failures: tuple[str, ...]

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
    and agrees with the ring norm on denominators equal to 1.  More than
    SEARCH_BUDGET samples raises SearchBudgetError before any is drawn.
    """
    from .enumeration import _within_budget  # enumeration imports this module

    _within_budget(samples, "the norm-axiom check")
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
