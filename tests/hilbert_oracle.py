"""Hilbert-polynomial oracle for the profiles of Fano fourfolds.

Independent of the library under test: no Chern class and no Schubert
product is computed.  h^0 of O(d) comes from counting sections:

* on Gr(k, n), h^0(O(d)) is the dimension of the GL(n) representation of the
  k x d rectangle, the hook-content product (Stanley, EC2 Cor. 7.21.4, with
  Borel-Weil);
* on a section of Gr(k, n) by hypersurfaces of degrees d_i, the Koszul
  complex gives P(t) = sum_S (-1)^|S| P_Gr(t - sum_S d_i), over the subsets
  S of the degrees.  P^N is Gr(1, N+1), where h^0(O(d)) = C(N + d, N), so
  a complete intersection in P^N is such a section too.

Every term is an honest h^0 for t >= the sum of the degrees, and the
polynomial is interpolated in Fractions there.  Riemann-Roch on a fourfold
with c_1 = rH reads

    P(t) = h4 t^4/24 + r h4 t^3/12 + (r^2 h4 + c2h2) t^2/24 + r c2h2 t/24 + chi,

so h4, r, c2h2 and chi are read off, and the t^1 coefficient is a check on
the reading: the pairing c_1 c_2 H must be r c2h2.  The topological Euler
number has no route through P(t).  For a complete intersection fourfold in
P^N it has the closed form

    e = prod d_i * [h^4] (1 + h)^(N+1) / prod (1 + d_i h),

from the normal sequence alone; on the other sections it stays pinned by
c_top = C(n, k) on the Grassmannians and by the scenario literals.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, prod


def grassmannian_h0(k: int, n: int, d: int) -> int:
    """h^0(O(d)) on Gr(k, n): prod over the k x d rectangle of (n + content) / hook."""
    cells = [(i, j) for i in range(k) for j in range(d)]
    top = prod(n + j - i for i, j in cells)
    hooks = prod((d - j) + (k - i) - 1 for i, j in cells)
    return top // hooks


def section_hilbert(k: int, n: int, degrees: tuple, t: int) -> int:
    """chi(O(t)) on a section of Gr(k, n) by hypersurfaces of the given degrees, for t >= their sum."""
    return sum(
        (-1) ** size * grassmannian_h0(k, n, t - sum(subset))
        for size in range(len(degrees) + 1)
        for subset in combinations(degrees, size)
    )


def interpolate(values: dict) -> list:
    """Coefficients [p_0, ..., p_m] of the polynomial through {t: value}, by Lagrange."""
    coeffs = [Fraction(0)] * len(values)
    for t, value in values.items():
        basis, scale = [Fraction(1)], Fraction(value)
        for s in values:
            if s != t:
                basis = [Fraction(0)] + basis  # times t ...
                basis = [x - s * y for x, y in zip(basis, basis[1:] + [0])]  # ... minus s
                scale /= t - s
        coeffs = [x + scale * y for x, y in zip(coeffs, basis)]
    return coeffs


def fourfold_profile(hilbert, start: int) -> tuple:
    """(h4, index, c2h2, chi) read off the Hilbert function ``hilbert`` by Riemann-Roch.

    Seven values from ``start`` on must lie on one polynomial of degree 4,
    and the t^1 coefficient must be index * c2h2 / 24.
    """
    poly = interpolate({t: hilbert(t) for t in range(start, start + 7)})
    if any(poly[5:]):
        raise ValueError("the Hilbert polynomial does not have degree 4")
    chi, linear, quadratic, cubic, quartic = poly[:5]
    h4 = 24 * quartic
    index = 12 * cubic / h4
    c2h2 = 24 * quadratic - index ** 2 * h4
    if linear != index * c2h2 / 24:
        raise ValueError(f"the t coefficient {linear} is not index * c2h2 / 24")
    return tuple(_exact(x) for x in (h4, index, c2h2, chi))


def section_profile(k: int, n: int, degrees: tuple) -> tuple:
    return fourfold_profile(lambda t: section_hilbert(k, n, degrees, t), sum(degrees))


def ci_euler(degrees: tuple) -> int:
    """The closed form above: the h^4 coefficient of a series truncated after degree 4."""
    series = [comb(5 + len(degrees), j) for j in range(5)]  # (1 + h)^(N+1), N = 4 + len(degrees)
    for d in degrees:
        series = [sum(series[j] * (-d) ** (m - j) for j in range(m + 1)) for m in range(5)]
    return prod(degrees) * series[4]


def ci_profile(degrees: tuple) -> tuple:
    """(h4, index, c2h2, chi, euler) of a complete intersection fourfold in P^(4 + len(degrees))."""
    return section_profile(1, 5 + len(degrees), degrees) + (ci_euler(degrees),)


def _exact(value: Fraction) -> int:
    if value.denominator != 1:
        raise ValueError(f"{value} is not an integer")
    return int(value)
