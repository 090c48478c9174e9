"""Fourfold profiles and surface-center pairings, derived rather than typed in.

A profile comes from the Chern engine by adjunction: the fourfold is cut
from Gr(k, n) by hypersurfaces of given degrees in the Pluecker embedding.
P^N is Gr(1, N+1), so a complete intersection in projective space takes the
same path as a linear section of a Grassmannian.  The section's class in
the Grassmannian is prod(d) sigma_1^codim, so a number on it is the
Poincare pairing of a degree-4 class with that one class: sum over lam of
a_lam times the coefficient of the dual partition lam^vee, read off the
two term tables with no product by ``schubert._pairing``, the helper the
Schubert product's top-degree branch uses.  A surface of known Schubert
class in a Grassmannian gets its ambient pairings H^2 . S and c_2 . S from
the same engine; the scenario language checks a surface center's stated
pairings against them.  A center's intrinsic numbers (hkc, kc2, euler) stay
literals of the scenario.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .blowup import FourfoldProfile
from .chern import TotalChernClass, section_chern, tangent_bundle
from .schubert import Grassmannian, _pairing, sigma

_TD4_DENOMINATOR = 720


def _chi_from_pairings(c14: int, c12c2: int, c2c2: int, c1c3: int, c4: int) -> int:
    """chi(O) from the degree-4 Todd class; integrality is a consistency check."""
    numerator = -c14 + 4 * c12c2 + 3 * c2c2 + c1c3 - c4
    if numerator % _TD4_DENOMINATOR:
        raise ValueError(f"Todd numerator {numerator} is not divisible by {_TD4_DENOMINATOR}")
    return numerator // _TD4_DENOMINATOR


@lru_cache(maxsize=None)
def section_profile(k: int, n: int, degrees: tuple[int, ...]) -> FourfoldProfile:
    """Profile of a smooth fourfold cut from Gr(k, n) by hypersurfaces of the given degrees.

    Each number is the pairing of a degree-4 monomial with the section's
    class prod(d) sigma_1^codim, built once.  sigma_1 spans the classes of
    codimension 1, so c_1 = r sigma_1 with r the index, c_1's sigma_1
    coefficient; c_1^4, c_1^2 c_2 and c_1 c_3 are then r^4 h4, r^2 c2h2 and
    r times the pairing of sigma_1 c_3, and c_1 is never multiplied out.
    """
    ctx = Grassmannian(k, n)
    if ctx.dim - len(degrees) != 4:
        raise ValueError(f"codim {len(degrees)} does not cut Gr({k},{n}) down to a fourfold")
    total = section_model(k, n, degrees)
    r = total.component(1).coefficient((1,))
    s1 = sigma(ctx, 1)
    section_class = math.prod(degrees) * s1 ** len(degrees)
    c2, c3, c4 = (total.component(i) for i in range(2, 5))
    h2 = s1 * s1
    h4, c2h2, c2c2, s1c3, euler = (
        _pairing(monomial, section_class) for monomial in (h2 * h2, c2 * h2, c2 * c2, s1 * c3, c4)
    )
    return FourfoldProfile(
        h4=h4,
        index=r,
        c2h2=c2h2,
        chi=_chi_from_pairings(r**4 * h4, r**2 * c2h2, c2c2, r * s1c3, euler),
        euler=euler,
    )


@lru_cache(maxsize=None)
def section_model(k: int, n: int, degrees: tuple[int, ...]) -> TotalChernClass:
    ctx = Grassmannian(k, n)
    return section_chern(tangent_bundle(ctx).total, degrees)


def surface_pairings(k: int, n: int, degrees: tuple[int, ...], parts: tuple[int, ...]) -> tuple[int, int]:
    """(H^2 . S, c_2 . S) for a surface S of class sigma[parts] in Gr(k, n).

    H is sigma_1 and c_2 that of the fourfold cut out by hypersurfaces of the given degrees;
    the class lives in the Grassmannian, so both are Schubert integrals there,
    and c_2 . S is the pairing of the two classes.
    A class outside the Grassmannian's box is zero, so it is no surface class.
    """
    ctx = Grassmannian(k, n)
    cycle = sigma(ctx, *parts)
    if cycle.codim != ctx.dim - 2 or cycle.is_zero():
        raise ValueError(f"{parts} is not a surface class in Gr({k},{n})")
    c2 = section_model(k, n, degrees).component(2)
    return cycle.pieri(1).pieri(1).integral(), _pairing(c2, cycle)
