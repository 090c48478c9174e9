"""Standard fourfold profiles and blowup centers, derived rather than typed in.

Complete-intersection profiles come from the adjunction series
(1+h)^(N+1) / prod(1+d_i h); Grassmannian-section profiles come from the
Chern engine.  The only hand-entered numbers are intrinsic facts about the
centers themselves (a plane is P^2, the quintic del Pezzo surface has
K^2 = 5 and Euler number 7).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .blowup import BlowupModel, CurveCenter, FourfoldProfile, SurfaceCenter
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
def ci_profile(name: str, degrees: tuple[int, ...] = ()) -> FourfoldProfile:
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
        name=name,
        h4=h4,
        index=index,
        c2h2=c2 * h4,
        chi=chi,
        euler=c4 * h4,
    )


@lru_cache(maxsize=None)
def section_profile(name: str, k: int, n: int, codim: int) -> FourfoldProfile:
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
        name=name,
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


def line_center() -> CurveCenter:
    return CurveCenter(genus=0, hc=1)


def schubert_plane_center(k: int, n: int, codim: int, parts: tuple[int, ...]) -> SurfaceCenter:
    """A plane in a Grassmannian section, cut out by a Schubert condition.

    The intrinsic invariants are those of P^2 with its line polarization;
    the two ambient pairings are computed from the Schubert class.
    """
    ctx = Grassmannian(k, n)
    model = section_model(k, n, codim)
    cycle = sigma(ctx, *parts)
    if cycle.codim != ctx.dim - 2:
        raise ValueError(f"{parts} is not a surface class in Gr({k},{n})")
    return SurfaceCenter(
        hhc=(sigma(ctx, 1) ** 2 * cycle).integral(),
        hkc=-3,
        kc2=9,
        euler=3,
        c2xc=(model.chern.component(2) * cycle).integral(),
    )


def quintic_del_pezzo_center(profile: FourfoldProfile) -> SurfaceCenter:
    """The anticanonically embedded quintic del Pezzo surface inside a fourfold.

    c_2 of a complete intersection is a pure power of the hyperplane class,
    so its pairing against the surface is (c2h2 / h4) times the degree.
    """
    if profile.c2h2 % profile.h4:
        raise ValueError("c2 of this profile is not proportional to H^2")
    hhc = 5
    return SurfaceCenter(
        hhc=hhc,
        hkc=-5,
        kc2=5,
        euler=7,
        c2xc=(profile.c2h2 // profile.h4) * hhc,
    )


@lru_cache(maxsize=None)
def standard_models() -> dict:
    """The six blowup models behind the built-in scenarios, keyed by name."""
    p4 = ci_profile("P4")
    w22 = ci_profile("W22", (2, 2))
    w5 = section_profile("W5", 2, 5, 2)
    v14 = section_profile("V14", 2, 6, 4)
    return {
        "p4-line": BlowupModel(p4, line_center()),
        "w22-line": BlowupModel(w22, line_center()),
        "w22-quintic": BlowupModel(w22, quintic_del_pezzo_center(w22)),
        "w5-xi": BlowupModel(w5, schubert_plane_center(2, 5, 2, (2, 2))),
        "w5-pi": BlowupModel(w5, schubert_plane_center(2, 5, 2, (3, 1))),
        "v14-plane": BlowupModel(v14, schubert_plane_center(2, 6, 4, (4, 2))),
    }
