import math
import random
from fractions import Fraction

import pytest
import sympy

from biquad.curves import add, scalar_mul
from biquad.families import general_family_points, specialize_general


def squarefree_part(q):
    """Oracle for the square class of a nonzero rational: the signed product
    of the primes that divide num * den to an odd power, from sympy."""
    q = Fraction(q)
    n = q.numerator * q.denominator
    odd = [p for p, e in sympy.factorint(abs(n)).items() if e % 2]
    return (-1 if n < 0 else 1) * math.prod(odd)


def euler_parts_oracle(p, q):
    """f1..f4 of Euler's N at (p, q), written out; their product is N(p, q)."""
    return [
        p**4 + 6 * p**2 * q**2 + q**4,
        p**8 - p**4 * q**4 + q**8,
        p**8 - 4 * p**6 * q**2 + 8 * p**4 * q**4 - 4 * p**2 * q**6 + q**8,
        p**8 + 2 * p**6 * q**2 + 11 * p**4 * q**4 + 2 * p**2 * q**6 + q**8,
    ]


def family_curve_points(m, n):
    """The two specialized generators on y^2 = x^3 - (m^4+n^4)x."""
    _, points, _ = specialize_general(general_family_points(), m, n)
    return tuple(points)


def random_family_point(rng: random.Random, max_param=6, max_coeff=2):
    """A nontorsion point on a random curve of the family."""
    while True:
        m = rng.randint(1, max_param)
        n = rng.randint(1, max_param)
        if m + n == 0:
            continue
        p1, p2 = family_curve_points(m, n)
        a = rng.randint(-max_coeff, max_coeff)
        b = rng.randint(-max_coeff, max_coeff)
        if a == 0 and b == 0:
            continue
        q = add(scalar_mul(a, p1), scalar_mul(b, p2))
        if q.is_identity or q.y == 0:
            continue
        return q


@pytest.fixture
def rng():
    return random.Random(20260823)
