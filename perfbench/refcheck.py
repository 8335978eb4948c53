"""Reference arithmetic and output checks for the benchmark.

Nothing here imports qdescent: every expected answer is computed with plain
ints, tuples and fractions.Fraction, so a check cannot share a defect with
the code it checks.  Ring elements use the same plain data layout as the
library's raw values (Z: int, Zi: (re, im), F_p[t]: coefficient tuple in
ascending degree without trailing zeros), which is a data format, not code.

A form is a Form(quad, lin, const, d) of such elements in d variables;
quad maps (i, j) with i <= j to the coefficient of x_i * x_j.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from typing import Dict, NamedTuple, Tuple


class Form(NamedTuple):
    quad: Dict[Tuple[int, int], object]
    lin: tuple
    const: object
    d: int


class RefZ:
    zero, one = 0, 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return abs(a) == 1

    def rem(self, a, b):
        return a % b

    def norm(self, a):
        return abs(a)

    def round_quotient(self, a, b):
        return _nearest(Fraction(a, b))

    def box(self, bound):
        return list(range(-bound, bound + 1))

    def dens(self, height):
        return list(range(2, height + 1))

    def parse(self, text):
        return int(text)

    def fmt(self, a):
        return str(a)


class RefZi:
    """Gaussian integers; division rounds to the nearest point."""

    zero, one = (0, 0), (1, 0)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def is_unit(self, a):
        return a[0] * a[0] + a[1] * a[1] == 1

    def rem(self, a, b):
        return self.add(a, self.neg(self.mul(b, self.round_quotient(a, b))))

    def norm(self, a):
        return a[0] * a[0] + a[1] * a[1]

    def round_quotient(self, a, b):
        n = self.norm(b)
        return (
            _nearest(Fraction(a[0] * b[0] + a[1] * b[1], n)),
            _nearest(Fraction(a[1] * b[0] - a[0] * b[1], n)),
        )

    def box(self, bound):
        return [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)]

    def dens(self, height):
        return [
            (x, y)
            for x in range(1, height + 1)
            for y in range(0, height + 1)
            if 2 <= x * x + y * y <= height
        ]

    def parse(self, text):
        """Read the library's text for a Gaussian integer ("3", "-i", "2-5i")."""
        m = re.fullmatch(r"(-?\d+(?=[+-]))?([+-]?\d*)i", text)
        if m is None:
            return (int(text), 0)
        real = int(m.group(1)) if m.group(1) else 0
        s = m.group(2)
        imag = 1 if s in ("", "+") else -1 if s == "-" else int(s)
        return (real, imag)

    def fmt(self, a):
        return f"{a[0]}{a[1]:+d}*i"


class RefFpt:
    """Polynomials over F_p as coefficient tuples in ascending degree."""

    def __init__(self, p):
        self.p = p
        self.zero, self.one = (), (1,)

    @staticmethod
    def _strip(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def add(self, a, b):
        n = max(len(a), len(b))
        return self._strip(
            [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % self.p for i in range(n)]
        )

    def neg(self, a):
        return tuple((-c) % self.p for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self._strip([c % self.p for c in out])

    def is_unit(self, a):
        return len(a) == 1

    def divmod(self, a, b):
        r = list(a)
        q = [0] * max(0, len(a) - len(b) + 1)
        inv = pow(b[-1], self.p - 2, self.p)
        while len(r) >= len(b):
            f = r[-1] * inv % self.p
            shift = len(r) - len(b)
            q[shift] = f
            for j, c in enumerate(b):
                r[shift + j] = (r[shift + j] - f * c) % self.p
            r = list(self._strip(r))
        return self._strip(q), tuple(r)

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def round_quotient(self, a, b):
        return self.divmod(a, b)[0]

    def norm(self, a):
        return self.p ** (len(a) - 1) if a else 0

    def box(self, bound):
        return [self._strip(c) for c in product(range(self.p), repeat=bound + 1)]

    def dens(self, height):
        return [c + (1,) for deg in range(1, height + 1) for c in product(range(self.p), repeat=deg)]

    def parse(self, text):
        """Read the library's text for a polynomial in t ("t^2+2*t+1", "0")."""
        coeffs = {}
        for term in text.split("+"):
            m = re.fullmatch(r"(\d+)?\*?(t(?:\^(\d+))?)?", term)
            if not m or not term:
                raise ValueError(f"not a polynomial in t: {text!r}")
            c = int(m.group(1)) if m.group(1) else 1
            deg = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
            coeffs[deg] = (coeffs.get(deg, 0) + c) % self.p
        top = max(coeffs)
        return self._strip([coeffs.get(k, 0) for k in range(top + 1)])

    def fmt(self, a):
        return "+".join(f"{c}*t^{k}" for k, c in enumerate(a) if c) or "0"


def _nearest(q: Fraction) -> int:
    """Nearest integer, ties toward zero (the rounding the oracle documents)."""
    n = q.numerator // q.denominator
    if q - n > Fraction(1, 2) or (q - n == Fraction(1, 2) and n < 0):
        n += 1
    return n


def ring(name):
    if name == "Z":
        return RefZ()
    if name == "Zi":
        return RefZi()
    if name.startswith("Fpt:"):
        return RefFpt(int(name[4:]))
    raise ValueError(name)


def gcd_is_unit(R, den, nums):
    """True when den and all nums share no non-unit factor (Euclid's algorithm)."""
    g = den
    for a in nums:
        b = a
        while b != R.zero:
            g, b = b, R.rem(g, b)
        if R.is_unit(g):
            return True
    return R.is_unit(g)


def form2_at(R, form: Form, y):
    """The quadratic part f2(y) for an integral point y."""
    acc = R.zero
    for (i, j), c in form.quad.items():
        acc = R.add(acc, R.mul(c, R.mul(y[i], y[j])))
    return acc


def eval_form(R, form: Form, y):
    """f(y) for an integral point y."""
    acc = R.add(form2_at(R, form, y), form.const)
    for i, c in enumerate(form.lin):
        acc = R.add(acc, R.mul(c, y[i]))
    return acc


def canonical_points(R, d, box, dens):
    """(nums, den) pairs in enumeration order with gcd(den, nums) a unit."""
    nums_axis = R.box(box)
    for den in dens:
        for nums in product(nums_axis, repeat=d):
            if R.is_unit(den) or gcd_is_unit(R, den, nums):
                yield nums, den


def euclid_checked(R, d, height, box):
    """Points check_euclidean must visit: canonical, denominator of norm 2..height."""
    return sum(1 for _ in canonical_points(R, d, box, R.dens(height)))


def adc_checked(R, form: Form, height, box):
    """Points verify_adc must check: canonical, denominator 1 or of norm
    2..height, and q(x) = q(nums)/den^2 in the ring."""
    count = 0
    for nums, den in canonical_points(R, form.d, box, [R.one] + R.dens(height)):
        if R.rem(form2_at(R, form, nums), R.mul(den, den)) == R.zero:
            count += 1
    return count


def four_squares_deep_holes(box):
    """Closed form of the four-squares sweep failures: denominator 2 with
    every numerator odd (x - y then has all coordinates +-1/2 for every
    rounding, so f2(x - y) is 1 or larger)."""
    odd = [a for a in range(-box, box + 1) if a % 2]
    return {(nums, 2) for nums in product(odd, repeat=4)}


def is_sum_of_three_squares(n):
    """Legendre: n is a sum of three squares unless n = 4^a (8b + 7)."""
    while n and n % 4 == 0:
        n //= 4
    return n % 8 != 7
