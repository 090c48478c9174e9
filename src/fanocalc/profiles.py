"""Fourfold profiles and surface-center pairings, derived rather than typed in.

Complete-intersection profiles come from the adjunction series
(1+h)^(N+1) / prod(1+d_i h); Grassmannian-section profiles come from the
Chern engine.  A surface of known Schubert class in a Grassmannian gets its
ambient pairings H^2 . S and c_2 . S from the same engine; the scenario
language checks a surface center's stated pairings against them.  A
center's intrinsic numbers (hkc, kc2, euler) stay literals of the scenario.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .blowup import FourfoldProfile
from .chern import SectionModel, section_chern, section_degree, tangent_bundle
from .schubert import Grassmannian, sigma

_TD4_DENOMINATOR = 720


def _chi_from_pairings(c14: int, c12c2: int, c2c2: int, c1c3: int, c4: int) -> int:
    """chi(O) from the degree-4 Todd class; integrality is a consistency check."""
    numerator = -c14 + 4 * c12c2 + 3 * c2c2 + c1c3 - c4
    if numerator % _TD4_DENOMINATOR:
        raise ValueError(f"Todd numerator {numerator} is not divisible by {_TD4_DENOMINATOR}")
    return numerator // _TD4_DENOMINATOR


@lru_cache(maxsize=None)
def ci_profile(degrees: tuple[int, ...] = ()) -> FourfoldProfile:
    """Profile of a smooth complete intersection fourfold of the given multidegree."""
    if any(d < 2 for d in degrees):
        raise ValueError("hypersurface degrees must be at least 2")
    n = 4 + len(degrees)
    # c(X) = (1+h)^(n+1) / prod(1+d h), as a truncated integer series in h
    coeffs = [comb(n + 1, j) for j in range(5)]
    for d in degrees:
        inv = [(-d) ** m for m in range(5)]
        coeffs = [
            sum(coeffs[j] * inv[m - j] for j in range(m + 1)) for m in range(5)
        ]
    h4 = 1
    for d in degrees:
        h4 *= d
    index = coeffs[1]
    if index < 1:
        raise ValueError("the intersection is not Fano")
    c2, c3, c4 = coeffs[2], coeffs[3], coeffs[4]
    chi = _chi_from_pairings(
        index ** 4 * h4, index ** 2 * c2 * h4, c2 ** 2 * h4, index * c3 * h4, c4 * h4
    )
    return FourfoldProfile(
        h4=h4,
        index=index,
        c2h2=c2 * h4,
        chi=chi,
        euler=c4 * h4,
    )


@lru_cache(maxsize=None)
def section_profile(k: int, n: int, codim: int) -> FourfoldProfile:
    """Profile of a smooth fourfold linear section of Gr(k, n)."""
    ctx = Grassmannian(k, n)
    if ctx.dim - codim != 4:
        raise ValueError(f"codim {codim} does not cut Gr({k},{n}) down to a fourfold")
    model = section_model(k, n, codim)
    s1 = sigma(ctx, 1)
    c1, c2, c3, c4 = (model.chern.component(i) for i in range(1, 5))
    h4 = section_degree(model, s1 ** 4)
    chi = _chi_from_pairings(
        section_degree(model, c1 ** 4),
        section_degree(model, c1 ** 2 * c2),
        section_degree(model, c2 * c2),
        section_degree(model, c1 * c3),
        section_degree(model, c4),
    )
    return FourfoldProfile(
        h4=h4,
        index=model.index,
        c2h2=section_degree(model, c2 * s1 ** 2),
        chi=chi,
        euler=section_degree(model, c4),
    )


@lru_cache(maxsize=None)
def section_model(k: int, n: int, codim: int) -> SectionModel:
    ctx = Grassmannian(k, n)
    return section_chern(tangent_bundle(ctx).total, codim)


def surface_pairings(k: int, n: int, codim: int, parts: tuple[int, ...]) -> tuple[int, int]:
    """(H^2 . S, c_2 . S) for a surface S of class sigma[parts] in Gr(k, n).

    H is sigma_1 and c_2 that of the fourfold cut out by ``codim`` hyperplanes;
    the class lives in the Grassmannian, so both are Schubert integrals there.
    """
    ctx = Grassmannian(k, n)
    cycle = sigma(ctx, *parts)
    if cycle.codim != ctx.dim - 2:
        raise ValueError(f"{parts} is not a surface class in Gr({k},{n})")
    c2 = section_model(k, n, codim).chern.component(2)
    return cycle.pieri(1).pieri(1).integral(), (c2 * cycle).integral()
