"""Input generators shared by the test modules."""

import random

from qdescent import Domain, QuadraticPolynomial


def random_quadratic(
    domain: Domain, d: int, rng: random.Random, coeff_bound: int = 5
) -> QuadraticPolynomial:
    """Random polynomial for property tests; any coefficient may be zero."""
    quad = {}
    for i in range(d):
        for j in range(i, d):
            if rng.random() < 0.5:
                quad[(i, j)] = domain._random_raw(rng, coeff_bound)
    lin = [
        domain._random_raw(rng, coeff_bound) if rng.random() < 0.5 else 0
        for _ in range(d)
    ]
    const = domain._random_raw(rng, coeff_bound) if rng.random() < 0.7 else 0
    return QuadraticPolynomial(domain, d, quad, lin, const)
