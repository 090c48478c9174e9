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

from fractions import Fraction
from functools import cached_property

from .record import FrozenRecord


class NonIntegralCharacteristicError(ArithmeticError):
    """Riemann-Roch produced a non-integer: the input data is inconsistent."""


class FourfoldProfile(FrozenRecord):
    """Numerical profile of a smooth Fano fourfold of Picard rank one.

    h4 is the degree of the hyperplane class, index the Fano index
    (so K = -index * H), c2h2 the pairing of c_2 against H^2, chi = chi(O)
    and euler the topological Euler number.  The pairing of c_1 c_2 against
    H is index * c2h2, so it is not an input.  Immutable, compared by value.
    """

    __slots__ = ("h4", "index", "c2h2", "chi", "euler")

    def __init__(self, h4: int, index: int, c2h2: int, chi: int, euler: int):
        if h4 < 1:
            raise ValueError("h4 must be positive")
        if index < 1:
            raise ValueError("the Fano index must be positive")
        self._store(h4, index, c2h2, chi, euler)


class CurveCenter(FrozenRecord):
    """A smooth curve inside the fourfold: genus and hyperplane degree.

    Immutable, compared by value.
    """

    __slots__ = ("genus", "hc")

    def __init__(self, genus: int, hc: int):
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if hc < 1:
            raise ValueError("the curve must have positive degree")
        self._store(genus, hc)


class SurfaceCenter(FrozenRecord):
    """A smooth surface S inside the fourfold.

    hhc = H^2 . S, hkc = H . K_S, kc2 = K_S^2, euler = topological Euler
    number of S, c2xc = c_2 of the ambient fourfold paired with S.  Nothing
    here checks Noether's K^2 + Eu = 12; for the built-in rational centers,
    tests/test_profiles.py::test_schubert_plane_centers and
    test_quintic_del_pezzo_center do.  Immutable, compared by value.
    """

    __slots__ = ("hhc", "hkc", "kc2", "euler", "c2xc")

    def __init__(self, hhc: int, hkc: int, kc2: int, euler: int, c2xc: int):
        if hhc < 1:
            raise ValueError("the surface must have positive degree")
        self._store(hhc, hkc, kc2, euler, c2xc)


class Divisor(FrozenRecord):
    """Integer combination a*H + b*E on the blowup.  Immutable, compared by value."""

    __slots__ = ("h", "e")

    def __init__(self, h: int, e: int):
        self._store(h, e)

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


class BlowupModel(FrozenRecord):
    """The blowup of a profiled fourfold along a curve or surface center.

    Every degree computation reads three tables, each worked out once per
    model from the base profile and the center: ``c1``, the five monomials
    H^(4-j) E^j and the three pairings of c_2.  Immutable, compared by
    (base, center); the tables are cached in the instance ``__dict__``,
    which is the one slot that is not a field.
    """

    __slots__ = ("base", "center", "__dict__")

    def __init__(self, base: FourfoldProfile, center: CurveCenter | SurfaceCenter):
        self._store(base, center)

    @cached_property
    def c1(self) -> Divisor:
        """c_1 = r H - (codim - 1) E, r the Fano index and codim that of the center."""
        return Divisor(self.base.index, -2 if isinstance(self.center, CurveCenter) else -1)

    @cached_property
    def monomials(self) -> tuple:
        """H^(4-j) . E^j for j = 0..4: H^4 from the base, the rest from the center."""
        base, c, r = self.base, self.center, self.base.index
        if isinstance(c, CurveCenter):
            return (base.h4, 0, 0, c.hc, r * c.hc + 2 * c.genus - 2)
        return (base.h4, 0, -c.hhc, -c.hkc - r * c.hhc, c.c2xc - c.euler - r * c.hkc - r * r * c.hhc)

    @cached_property
    def c2(self) -> tuple:
        """c_2 of the blowup paired with H^2, H . E and E^2.

        Over a curve center, c_2 is the pulled-back c_2 plus (2g - 2 - r hc)
        fibers of E; over a surface center, the pulled-back c_2 and center
        class minus r H . E (r the Fano index), paired through the monomials.
        """
        base, c, r = self.base, self.center, self.base.index
        if isinstance(c, CurveCenter):
            return (base.c2h2, 0, 2 * c.genus - 2 - r * c.hc)
        return (base.c2h2 + c.hhc, r * c.hhc, -2 * c.c2xc + c.euler - c.kc2 + r * r * c.hhc)


def _pair_quadratics(model: BlowupModel, a0: int, a1: int, a2: int, b0: int, b1: int, b2: int) -> int:
    """(a0 + a1 t + a2 t^2)(b0 + b1 t + b2 t^2), its t^j coefficient paired with model.monomials[j]."""
    m0, m1, m2, m3, m4 = model.monomials
    return (a0 * b0 * m0 + (a0 * b1 + a1 * b0) * m1 + (a0 * b2 + a1 * b1 + a2 * b0) * m2
            + (a1 * b2 + a2 * b1) * m3 + a2 * b2 * m4)


def quartic_number(model: BlowupModel, d1: Divisor, d2: Divisor, d3: Divisor, d4: Divisor) -> int:
    """D1 . D2 . D3 . D4, read off the model's monomial table.

    A divisor h H + e E is h + e t, with t^j standing for H^(4-j) E^j =
    model.monomials[j].  Two divisors make one quadratic, h h' + (h e' +
    e h') t + e e' t^2, and the quartic pairs D1 D2 with D3 D4.
    """
    h1, e1, h3, e3 = d1.h, d1.e, d3.h, d3.e
    h2, e2, h4, e4 = d2.h, d2.e, d4.h, d4.e
    return _pair_quadratics(model, h1 * h2, h1 * e2 + e1 * h2, e1 * e2,
                            h3 * h4, h3 * e4 + e3 * h4, e3 * e4)


def chi_riemann_roch(model: BlowupModel, d: Divisor) -> int:
    """chi(O(D)) on the blowup by Riemann-Roch.

    The bracket D^4 + 2 D^3 c_1 + D^2 c_1^2 + D^2 c_2 + D c_1 c_2 factors as
    M^2 + M . c_2 with M = D (D + c_1), the quadratic (m0, m1, m2): its
    square is one pairing against the monomial table, and M . c_2 is
    m0 c_2 H^2 + m1 c_2 H E + m2 c_2 E^2 from the model's c_2 table.  The
    degree-4 Todd integral is replaced by chi(O) of the base, which the
    blowup preserves.  A bracket that fails the 24-divisibility test means
    the model data cannot come from a smooth fourfold, and raises
    :class:`NonIntegralCharacteristicError`.
    """
    h, e = d.h, d.e
    c1 = model.c1
    mh, me = h + c1.h, e + c1.e
    m0, m1, m2 = h * mh, h * me + e * mh, e * me
    hh, he, ee = model.c2
    bracket = _pair_quadratics(model, m0, m1, m2, m0, m1, m2) + m0 * hh + m1 * he + m2 * ee
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
