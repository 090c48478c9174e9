"""Intersection theory on blowups of Fano fourfolds along curves and surfaces.

A fourfold is described by the handful of intersection numbers that survive
into Riemann-Roch: H^4, the Fano index, the pairings of c_2 against H^2 and
c_1 H, chi(O) and the topological Euler number.  Blowing up a smooth center
turns every degree computation into bookkeeping over the monomials H^i E^j,
and those are fixed by the center's own invariants.

Sign conventions are pinned by the projection models out of projective space
(see the sanity scenarios and the corresponding oracle tests), not rederived
per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union


class NonIntegralCharacteristicError(ArithmeticError):
    """Riemann-Roch produced a non-integer: the input data is inconsistent."""


@dataclass(frozen=True)
class FourfoldProfile:
    """Numerical profile of a smooth Fano fourfold of Picard rank one.

    h4 is the degree of the hyperplane class, index the Fano index
    (so K = -index * H), c2h2 the pairing of c_2 against H^2, chi = chi(O)
    and euler the topological Euler number.  The pairing of c_1 c_2 against
    H is index * c2h2, so it is not an input.
    """

    h4: int
    index: int
    c2h2: int
    chi: int
    euler: int

    def __post_init__(self):
        if self.h4 < 1:
            raise ValueError("h4 must be positive")
        if self.index < 1:
            raise ValueError("the Fano index must be positive")


@dataclass(frozen=True)
class CurveCenter:
    """A smooth curve inside the fourfold: genus and hyperplane degree."""

    genus: int
    hc: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.hc < 1:
            raise ValueError("the curve must have positive degree")


@dataclass(frozen=True)
class SurfaceCenter:
    """A smooth surface S inside the fourfold.

    hhc = H^2 . S, hkc = H . K_S, kc2 = K_S^2, euler = topological Euler
    number of S, c2xc = c_2 of the ambient fourfold paired with S.  Nothing
    here checks Noether's K^2 + Eu = 12; for the built-in rational centers,
    tests/test_profiles.py::test_schubert_plane_centers and
    test_quintic_del_pezzo_center do.
    """

    hhc: int
    hkc: int
    kc2: int
    euler: int
    c2xc: int

    def __post_init__(self):
        if self.hhc < 1:
            raise ValueError("the surface must have positive degree")


Center = Union[CurveCenter, SurfaceCenter]


@dataclass(frozen=True)
class Divisor:
    """Integer combination a*H + b*E on the blowup."""

    h: int
    e: int

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(self.h + other.h, self.e + other.e)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return Divisor(self.h - other.h, self.e - other.e)

    def __neg__(self) -> "Divisor":
        return Divisor(-self.h, -self.e)

    def __mul__(self, scalar: int) -> "Divisor":
        if not isinstance(scalar, int):
            return NotImplemented
        return Divisor(self.h * scalar, self.e * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        parts = []
        if self.h:
            parts.append("H" if self.h == 1 else f"{self.h}*H")
        if self.e:
            sign = "-" if self.e < 0 else ("+" if parts else "")
            mag = abs(self.e)
            parts.append(f"{sign}{'' if mag == 1 else str(mag) + '*'}E")
        return "".join(parts) if parts else "0"


H = Divisor(1, 0)
E = Divisor(0, 1)


@dataclass(frozen=True)
class BlowupModel:
    """The blowup of a profiled fourfold along a curve or surface center."""

    base: FourfoldProfile
    center: Center

    @property
    def discrepancy(self) -> int:
        return 2 if isinstance(self.center, CurveCenter) else 1

    @property
    def canonical(self) -> Divisor:
        return Divisor(-self.base.index, self.discrepancy)

    @property
    def c1(self) -> Divisor:
        return -self.canonical

    @cached_property
    def monomials(self) -> tuple:
        """H^(4-j) . E^j for j = 0..4, computed once per model."""
        return tuple(monomial_number(self, 4 - j, j) for j in range(5))


def monomial_number(model: BlowupModel, h_power: int, e_power: int) -> int:
    """The intersection number H^h_power . E^e_power on the blowup."""
    if h_power < 0 or e_power < 0 or h_power + e_power != 4:
        raise ValueError("exponents must be non-negative and sum to 4")
    base, center, r = model.base, model.center, model.base.index
    if e_power == 0:
        return base.h4
    if isinstance(center, CurveCenter):
        if e_power == 1 or e_power == 2:
            return 0
        if e_power == 3:
            return center.hc
        return r * center.hc + 2 * center.genus - 2
    if e_power == 1:
        return 0
    if e_power == 2:
        return -center.hhc
    if e_power == 3:
        return -center.hkc - r * center.hhc
    return center.c2xc - center.euler - r * center.hkc - r * r * center.hhc


def quartic_number(model: BlowupModel, d1: Divisor, d2: Divisor, d3: Divisor, d4: Divisor) -> int:
    """D1 . D2 . D3 . D4, read off the model's monomial table.

    The coefficient a_j of t^j in the product of the four (h + e t) factors
    pairs with H^(4-j) E^j = model.monomials[j].  The factors are multiplied
    in one at a time, each by a five-term recurrence a_j <- h a_j + e a_(j-1).
    """
    m0, m1, m2, m3, m4 = model.monomials
    a4, a3, a2, a1, a0 = 0, 0, 0, d1.e, d1.h
    for d in (d2, d3, d4):
        h, e = d.h, d.e
        a4, a3, a2, a1, a0 = h * a4 + e * a3, h * a3 + e * a2, h * a2 + e * a1, h * a1 + e * a0, h * a0
    return a0 * m0 + a1 * m1 + a2 * m2 + a3 * m3 + a4 * m4


def c2_table(model: BlowupModel) -> tuple:
    """c_2 of the blowup paired with H^2, H . E and E^2.

    Over a curve center, c_2 is the pulled-back c_2 plus (2g - 2 - r hc)
    fibers of E; over a surface center, the pulled-back c_2 and center class
    minus r H . E (r the Fano index), paired through the monomial table.
    """
    base, center, r = model.base, model.center, model.base.index
    if isinstance(center, CurveCenter):
        return (base.c2h2, 0, 2 * center.genus - 2 - r * center.hc)
    return (
        base.c2h2 + center.hhc,
        r * center.hhc,
        -2 * center.c2xc + center.euler - center.kc2 + r * r * center.hhc,
    )


def chi_riemann_roch(model: BlowupModel, d: Divisor) -> int:
    """chi(O(D)) on the blowup by Riemann-Roch.

    The bracket D^4 + 2 D^3 c_1 + D^2 c_1^2 + D^2 c_2 + D c_1 c_2 factors as
    M^2 + M . c_2 with M = D (D + c_1): one quartic and one pairing against
    the c_2 table.  The degree-4 Todd integral is replaced by chi(O) of the
    base, which the blowup preserves.  A bracket that fails the
    24-divisibility test means the model data cannot come from a smooth
    fourfold, and raises :class:`NonIntegralCharacteristicError`.
    """
    m = d + model.c1
    hh, he, ee = c2_table(model)
    mc2 = d.h * m.h * hh + (d.h * m.e + d.e * m.h) * he + d.e * m.e * ee
    bracket = quartic_number(model, d, m, d, m) + mc2
    if bracket % 24:
        raise NonIntegralCharacteristicError(
            f"Riemann-Roch bracket {bracket} for {d} is not divisible by 24"
        )
    return bracket // 24 + model.base.chi


def euler_blowup(model: BlowupModel) -> int:
    """Topological Euler number of the blowup."""
    if isinstance(model.center, CurveCenter):
        return model.base.euler + 2 * (2 - 2 * model.center.genus)
    return model.base.euler + model.center.euler


def solve_linear(a: int, b: int, rhs: int) -> Fraction:
    """The solution of a*x + b = rhs, exactly."""
    if a == 0:
        raise ValueError("cannot solve a degenerate linear equation")
    return Fraction(rhs - b, a)


def adjunction_genus(lk: int, l2: int) -> int:
    """Genus of a curve section from L . K and L^2 on the surface."""
    if (lk + l2) % 2:
        raise ValueError(f"L.K + L^2 = {lk + l2} must be even")
    return (lk + l2) // 2 + 1
