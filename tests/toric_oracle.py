"""Lattice-point oracle for the blowups of P^4 along a line and along a plane.

Independent of the library under test.  The line {x2 = x3 = x4 = 0} and the
plane {x3 = x4 = 0} are torus-invariant, so both blowups are toric.  Let c be
the codimension of the center (3 for the line, 2 for the plane).  For
a >= b >= 0, the divisor aH - bE = b(H - E) + (a - b)H is nef, so Demazure
vanishing makes chi(O(aH - bE)) equal to h^0, and h^0 counts the degree-a
monomials in x0, ..., x4 whose degree in the c normal variables is at least b:

    sum_{j=b}^{a} C(j + c - 1, c - 1) * C(a - j + 4 - c, 4 - c).

chi(O(aH - bE)) is a polynomial of degree at most 4 in (a, b), and the grid
0 <= b <= a <= 8 determines such a polynomial, so agreement on the grid pins
Riemann-Roch for every divisor.  The count, interpolated in Fractions, splits
into graded parts by Riemann-Roch with c_1 = 5H - (c - 1)E:

    degree 4: D^4 / 24          (its coefficients give every H^i E^j)
    degree 3: D^3 c_1 / 12
    degree 2: D^2 (c_1^2 + c_2) / 24   (with the above, the c_2 pairings)
    degree 1: D c_1 c_2 / 24
    degree 0: chi(O) = 1

Only genus-0 centers in P^4 are covered.  A center of positive genus, and
the blowups of W22, W5 and V14, which are not toric, stay unpinned here.
References: Cox-Little-Schenck, Toric Varieties, Ch. 9 (Demazure vanishing);
Fulton, Introduction to Toric Varieties, 3.4-3.5.
"""

from fractions import Fraction
from itertools import product
from math import comb

CODIMS = {"line": 3, "plane": 2}
GRID = [(a, b) for a in range(9) for b in range(a + 1)]
# exponent pairs (i, j) of the monomials a^i b^j of degree at most 4
_EXPONENTS = [(i, d - i) for d in range(5) for i in range(d, -1, -1)]


def h0(c: int, a: int, b: int) -> int:
    """Degree-a monomials in five variables with degree at least b in the c normal ones."""
    return sum(comb(j + c - 1, c - 1) * comb(a - j + 4 - c, 4 - c) for j in range(b, a + 1))


def c1(c: int) -> tuple:
    """c_1 of the blowup as (H, E) coefficients: 5H - (c - 1)E."""
    return (5, 1 - c)


def hilbert(c: int) -> dict:
    """The count as a polynomial in (a, b): {(i, j): coefficient of a^i b^j}.

    Exact elimination over all grid points; an inconsistent system means the
    count is not a polynomial of degree at most 4, and raises.
    """
    rows = [[Fraction(a ** i * b ** j) for i, j in _EXPONENTS] + [Fraction(h0(c, a, b))]
            for a, b in GRID]
    for col in range(len(_EXPONENTS)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col] = [x / rows[col][col] for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                rows[r] = [x - row[col] * y for x, y in zip(row, top)]
    if any(row[-1] for row in rows[len(_EXPONENTS):]):
        raise ValueError("the count is not a polynomial of degree at most 4")
    return {exp: row[-1] for exp, row in zip(_EXPONENTS, rows)}


def graded(poly: dict, degree: int) -> dict:
    """The part of ``poly`` of total degree ``degree``, keyed by the power of b."""
    return {j: coeff for (i, j), coeff in poly.items() if i + j == degree}


def monomials(c: int) -> tuple:
    """H^(4-j) E^j for j = 0..4, from the degree-4 part D^4 / 24 with D = aH - bE."""
    part = graded(hilbert(c), 4)
    return tuple(_exact(24 * part[j] / (comb(4, j) * (-1) ** j)) for j in range(5))


def intersect(table: tuple, *divisors) -> int:
    """D1 . D2 . D3 . D4 for (H, E) coefficient pairs, by expanding the product."""
    total = 0
    for picks in product((0, 1), repeat=4):
        term = table[sum(picks)]
        for (h, e), pick in zip(divisors, picks):
            term *= e if pick else h
        total += term
    return total


def c2_pairings(c: int) -> tuple:
    """(c_2 . H^2, c_2 . H E, c_2 . E^2), from the degree-2 part D^2 (c_1^2 + c_2) / 24."""
    part, table, k = graded(hilbert(c), 2), monomials(c), c1(c)
    divisors = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (0, 1))]
    return tuple(
        _exact(24 * part[j] / (comb(2, j) * (-1) ** j)) - intersect(table, *pair, k, k)
        for j, pair in enumerate(divisors)
    )


def _exact(value: Fraction) -> int:
    if value.denominator != 1:
        raise ValueError(f"{value} is not an integer")
    return int(value)
