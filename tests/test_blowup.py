"""Blowup intersection bookkeeping against projective-space oracles."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanocalc.blowup import (
    E,
    H,
    BlowupModel,
    CurveCenter,
    Divisor,
    FourfoldProfile,
    NonIntegralCharacteristicError,
    SurfaceCenter,
    adjunction_genus,
    chi_riemann_roch,
    euler_blowup,
    quartic_number,
    solve_linear,
)
from fanocalc.profiles import section_model, section_profile
from fanocalc.schubert import Grassmannian, sigma
from builtin_models import builtin_models, normal_c2
from toric_oracle import CODIMS, GRID, c1, c2_pairings, graded, h0, hilbert, intersect, monomials


def koszul_chi(degrees, ambient_dim, k):
    """chi(O(k)) on a complete intersection, via the Koszul resolution."""
    total = 0
    for bits in product((0, 1), repeat=len(degrees)):
        shift = sum(b * d for b, d in zip(bits, degrees))
        n = k - shift + ambient_dim
        sign = (-1) ** sum(bits)
        total += sign * (math.comb(n, ambient_dim) if n >= 0 else 0)
    return total


# ---------------------------------------------------------------------------
# divisor arithmetic

def test_divisor_algebra():
    d = 2 * H - 3 * E
    assert (d.h, d.e) == (2, -3)
    assert d + E == Divisor(2, -2)
    assert -d == Divisor(-2, 3)
    assert repr(H - E) == "H-E"
    assert repr(Divisor(0, 0)) == "0"
    with pytest.raises(TypeError):
        H * "x"


# ---------------------------------------------------------------------------
# monomial tables

def test_curve_monomials():
    profile = FourfoldProfile(7, 2, 10, 1, 8)
    model = BlowupModel(profile, CurveCenter(genus=3, hc=4))
    assert model.monomials == (7, 0, 0, 4, 2 * 4 + 2 * 3 - 2)


def test_surface_monomials():
    profile = FourfoldProfile(7, 2, 10, 1, 8)
    center = SurfaceCenter(hhc=5, hkc=-5, kc2=5, euler=7, c2xc=20)
    model = BlowupModel(profile, center)
    assert model.monomials == (7, 0, -5, -(-5) - 2 * 5, 20 - 7 - 2 * (-5) - 4 * 5)


_DIVISORS = st.builds(
    Divisor,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)

# The six standard models, and their bases blown up along curves of genus
# 0-3; the last base is a profile no smooth fourfold has, so some of its
# Riemann-Roch brackets are not divisible by 24.
_STANDARD = builtin_models()
_BASES = sorted({model.base for model in _STANDARD.values()}, key=repr) + [FourfoldProfile(1, 1, 1, 1, 4)]
_CURVES = st.builds(CurveCenter, st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=12))
_MODELS = st.one_of(
    st.sampled_from([_STANDARD[name] for name in sorted(_STANDARD)]),
    st.builds(BlowupModel, st.sampled_from(_BASES), _CURVES),
)


@settings(max_examples=100, deadline=None)
@given(model=_MODELS, divisors=st.lists(_DIVISORS, min_size=5, max_size=5))
def test_quartic_is_symmetric_and_multilinear(model, divisors):
    *four, e = divisors
    value = quartic_number(model, *four)
    assert value == reference_quartic(model, *four)
    assert {quartic_number(model, *order) for order in permutations(four)} == {value}
    for slot in range(4):
        shifted, scaled = list(four), list(four)
        shifted[slot] += e
        scaled[slot] *= 2
        alone = four[:slot] + [e] + four[slot + 1:]
        assert quartic_number(model, *shifted) == value + quartic_number(model, *alone)
        assert quartic_number(model, *scaled) == 2 * value


# Reference formulas, one number at a time and apart from the model's tables;
# the engine's tables and the quartics and characteristics read from them must agree.

def reference_c1(model):
    """c_1 = -K, with K = -r H + d E and discrepancy d = 2 over a curve, 1 over a surface."""
    discrepancy = 2 if isinstance(model.center, CurveCenter) else 1
    return -Divisor(-model.base.index, discrepancy)


def reference_monomial(model, h_power, e_power):
    """The intersection number H^h_power . E^e_power on the blowup."""
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


def reference_c2(model):
    """c_2 of the blowup paired with H^2, H . E and E^2."""
    base, center, r = model.base, model.center, model.base.index
    if isinstance(center, CurveCenter):
        return (base.c2h2, 0, 2 * center.genus - 2 - r * center.hc)
    return (
        base.c2h2 + center.hhc,
        r * center.hhc,
        -2 * center.c2xc + center.euler - center.kc2 + r * r * center.hhc,
    )


def reference_quartic(model, *divisors):
    """D1 . D2 . D3 . D4 term by term: the (h + e t) coefficient list against reference_monomial.

    The factors are multiplied in one at a time, each by the five-term
    recurrence a_j <- h a_j + e a_(j-1), not paired as two quadratics as the
    engine does."""
    coeffs = [1, 0, 0, 0, 0]
    for d in divisors:
        for j in range(4, 0, -1):
            coeffs[j] = d.h * coeffs[j] + d.e * coeffs[j - 1]
        coeffs[0] *= d.h
    return sum(c * reference_monomial(model, 4 - j, j) for j, c in enumerate(coeffs))


def reference_bracket(model, d):
    """24 (chi(O(D)) - chi(O)): the Riemann-Roch bracket M^2 + M . c_2 with M = D (D + c_1)."""
    m = d + reference_c1(model)
    hh, he, ee = reference_c2(model)
    mc2 = d.h * m.h * hh + (d.h * m.e + d.e * m.h) * he + d.e * m.e * ee
    return reference_quartic(model, d, m, d, m) + mc2


def unfactored_bracket(model, d):
    """24 (chi(O(D)) - chi(O)) as D^4 + 2 D^3 c_1 + D^2 c_1^2 + D^2 c_2 + D c_1 c_2, term by term."""
    c1 = reference_c1(model)
    hh, he, ee = model.c2

    def with_c2(a, b):
        return a.h * b.h * hh + (a.h * b.e + a.e * b.h) * he + a.e * b.e * ee

    return (reference_quartic(model, d, d, d, d) + 2 * reference_quartic(model, d, d, d, c1)
            + reference_quartic(model, d, d, c1, c1) + with_c2(d, d) + with_c2(d, c1))


def assert_matches_reference(model, divisors):
    assert model.c1 == reference_c1(model)
    assert model.monomials == tuple(reference_monomial(model, 4 - j, j) for j in range(5))
    assert model.c2 == reference_c2(model)
    for quadruple in combinations_with_replacement(divisors, 4):
        assert quartic_number(model, *quadruple) == reference_quartic(model, *quadruple), quadruple
    for d in divisors:
        bracket = reference_bracket(model, d)
        if bracket % 24:
            with pytest.raises(NonIntegralCharacteristicError):
                chi_riemann_roch(model, d)
        else:
            assert chi_riemann_roch(model, d) == bracket // 24 + model.base.chi, d


@pytest.mark.parametrize("name", ["p4-line", "w22-line", "w22-quintic", "w5-xi", "w5-pi", "v14-plane"])
def test_quartic_and_chi_match_the_term_by_term_formula(models, name):
    divisors = [H, E, H - E, 2 * H - 3 * E, Divisor(-50, 50), Divisor(2**200, -7)]
    assert_matches_reference(models[name], divisors)


_PROFILES = st.builds(
    FourfoldProfile,
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
_CENTERS = st.one_of(
    st.builds(CurveCenter, st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=50)),
    st.builds(
        SurfaceCenter,
        st.integers(min_value=1, max_value=50),
        *[st.integers(min_value=-50, max_value=50)] * 4,
    ),
)
_WIDE_DIVISORS = st.builds(
    Divisor,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


@settings(max_examples=100, deadline=None)
@example(
    profile=FourfoldProfile(4, 3, 20, 1, 12),
    center=CurveCenter(genus=0, hc=1),
    divisors=[Divisor(2**200, -1), Divisor(3, 2**200), H - E],
)
@given(profile=_PROFILES, center=_CENTERS, divisors=st.lists(_WIDE_DIVISORS, min_size=1, max_size=3))
def test_quartic_and_chi_match_the_term_by_term_formula_on_drawn_models(profile, center, divisors):
    assert_matches_reference(BlowupModel(profile, center), divisors)


@settings(max_examples=200, deadline=None)
@example(model=BlowupModel(FourfoldProfile(1, 1, 1, 1, 4), CurveCenter(genus=0, hc=1)), d=H)
@example(model=BlowupModel(FourfoldProfile(4, 3, 20, 1, 12), CurveCenter(genus=0, hc=1)), d=Divisor(2**200, -1))
@given(model=_MODELS, d=_WIDE_DIVISORS)
def test_chi_equals_the_unfactored_bracket(model, d):
    bracket = unfactored_bracket(model, d)
    assert bracket == reference_bracket(model, d)  # M^2 + M . c_2 expands to it
    if bracket % 24:
        with pytest.raises(NonIntegralCharacteristicError):
            chi_riemann_roch(model, d)
    else:
        assert chi_riemann_roch(model, d) == bracket // 24 + model.base.chi


def test_the_drawn_models_reach_both_sides_of_the_integrality_test():
    def integral(base):
        return {unfactored_bracket(BlowupModel(base, CurveCenter(g, hc)), a * H + b * E) % 24 == 0
                for g in range(4) for hc in range(1, 13) for a in range(-3, 4) for b in range(-3, 4)}

    *standard, made_up = _BASES
    assert all(integral(base) == {True} for base in standard)
    assert integral(made_up) == {True, False}


# ---------------------------------------------------------------------------
# projection oracles out of projective space

def test_p4_line_projection_oracle(models):
    model = models["p4-line"]
    # projecting from a line contracts H - E, so all its powers vanish
    assert quartic_number(model, H - E, H - E, H - E, H - E) == 0
    assert quartic_number(model, E, E, E, E) == 3
    # chi of pullbacks equals chi on the base
    for k in range(4):
        assert chi_riemann_roch(model, k * H) == math.comb(k + 4, 4)
    # twists of the ideal sheaf of a line: a line imposes k + 1 conditions
    for k in range(1, 4):
        assert chi_riemann_roch(model, k * H - E) == math.comb(k + 4, 4) - (k + 1)
    assert chi_riemann_roch(model, E) == 1
    assert chi_riemann_roch(model, 3 * E) == 5


def test_w22_koszul_oracle(models):
    model = models["w22-line"]
    for k in range(4):
        assert chi_riemann_roch(model, k * H) == koszul_chi((2, 2), 6, k)
    assert chi_riemann_roch(model, H) == 7
    assert chi_riemann_roch(model, H - E) == 5
    assert chi_riemann_roch(model, -E) == 0


def toric_model(models, center):
    """The blowup of P^4 along the line or the plane of the toric oracle."""
    if center == "line":
        return models["p4-line"]
    plane = SurfaceCenter(hhc=1, hkc=-3, kc2=9, euler=3, c2xc=10)  # c_2(P^4) = 10 H^2
    return BlowupModel(section_profile(1, 5, ()), plane)


@pytest.mark.parametrize("center", sorted(CODIMS))
def test_toric_oracle_counts_sections_on_p4_blowups(models, center):
    # 45 points determine a polynomial of degree 4 in (a, b), so this pins
    # chi(O(aH - bE)) for every divisor, the curve c_2 term included
    model, c = toric_model(models, center), CODIMS[center]
    assert model.c1 == Divisor(*c1(c))
    mismatches = [(a, b) for a, b in GRID if chi_riemann_roch(model, a * H - b * E) != h0(c, a, b)]
    assert mismatches == []


@pytest.mark.parametrize("center", sorted(CODIMS))
def test_toric_oracle_graded_parts_give_the_monomial_and_c2_tables(models, center):
    model, c = toric_model(models, center), CODIMS[center]
    table, (hh, he, ee), (r, e1) = monomials(c), c2_pairings(c), c1(c)
    assert model.monomials == table
    assert model.c2 == (hh, he, ee)
    assert model.c1 == Divisor(r, e1)
    # the degree-3 part is D^3 c_1 / 12 and the degree-1 part D c_1 c_2 / 24
    poly = hilbert(c)
    basis = [(1, 0)] * 3 + [(0, 1)] * 3
    assert graded(poly, 3) == {
        j: Fraction(math.comb(3, j) * (-1) ** j * intersect(table, *basis[j:j + 3], (r, e1)), 12)
        for j in range(4)
    }
    assert graded(poly, 1) == {0: Fraction(r * hh + e1 * he, 24), 1: -Fraction(r * he + e1 * ee, 24)}
    assert graded(poly, 0) == {0: 1}


# ---------------------------------------------------------------------------
# c_2 of the blowup and its pairings


def test_c2_symbols_for_curve_center(models):
    # (H^2, H.E, E^2) pairings of c_2: the pulled-back c_2 gives (10, 0, 0),
    # and the (2g - 2 - r hc) fibers of E meet only E^2, once each
    model = models["p4-line"]
    g, hc, r = 0, 1, 5
    fibers = 2 * g - 2 - r * hc
    assert model.c2 == (10 + 0 * fibers, 0 + 0 * fibers, 0 + 1 * fibers)


def test_c2_symbols_for_surface_center(models):
    # pulled-back c_2, plus the center class, minus r = 3 times H.E
    model = models["w5-xi"]
    c2 = (22, 0, -5)
    center = (1, 0, -normal_c2(model))
    he = tuple(quartic_number(model, H, E, a, b) for a, b in ((H, H), (H, E), (E, E)))
    assert model.c2 == tuple(x + y - 3 * z for x, y, z in zip(c2, center, he))


def test_c2_normal_matches_the_chern_engine(models):
    # c_2(N) from E^4 on the blowup must agree with the Whitney
    # identity c(N) c(P^2) = c(section)|_plane, paired in the ambient Grassmannian:
    # c_1(N) = (index - 3) l and c_2(N) = c_2(section) . plane - 3 c_1(N) . l - 3
    w5, v14 = (1, 1), (1, 1, 1, 1)
    planes = {"w5-xi": (2, 5, w5, (2, 2)), "w5-pi": (2, 5, w5, (3, 1)), "v14-plane": (2, 6, v14, (4, 2))}
    for name, (k, n, degrees, parts) in planes.items():
        a = section_profile(k, n, degrees).index - 3
        plane = sigma(Grassmannian(k, n), *parts)
        c2_on_plane = (section_model(k, n, degrees).component(2) * plane).integral()
        assert normal_c2(models[name]) == c2_on_plane - 3 * a - 3, name


# ---------------------------------------------------------------------------
# Riemann-Roch characteristics

def test_chi_values_on_the_link_models(models):
    assert chi_riemann_roch(models["w22-line"], H - E) == 5
    assert chi_riemann_roch(models["p4-line"], H - E) == 3
    assert chi_riemann_roch(models["w5-xi"], H - E) == 5
    assert chi_riemann_roch(models["w5-xi"], E) == 1
    assert chi_riemann_roch(models["w5-xi"], -E) == 0
    assert chi_riemann_roch(models["w5-pi"], H - E) == 5
    assert chi_riemann_roch(models["v14-plane"], H - E) == 8
    assert chi_riemann_roch(models["w22-quintic"], 2 * H - E) == 10
    assert chi_riemann_roch(models["w22-quintic"], E) == 1


def test_canonical_class_and_discrepancy(models):
    # K = -c_1 = -r H + (codim - 1) E: the discrepancy is 2 over a curve, 1 over a surface
    assert -models["p4-line"].c1 == Divisor(-5, 2)
    assert -models["w22-line"].c1 == Divisor(-3, 2)
    assert -models["w5-xi"].c1 == Divisor(-3, 1)
    assert -models["v14-plane"].c1 == Divisor(-2, 1)
    assert models["w5-pi"].c1 == Divisor(3, -1)


@pytest.mark.parametrize("name", ["p4-line", "w22-line", "w22-quintic", "w5-xi", "w5-pi", "v14-plane"])
def test_serre_duality_and_integrality(models, name):
    model = models[name]
    k = -model.c1
    for a in range(-3, 4):
        for b in range(-3, 4):
            d = a * H + b * E
            # integrality: the bracket of any integer divisor is divisible by 24
            chi_d = chi_riemann_roch(model, d)
            assert chi_d == chi_riemann_roch(model, k - d)


def test_non_integral_bracket_is_rejected():
    # a fake profile whose curve data breaks the 24-divisibility of the bracket
    profile = FourfoldProfile(1, 1, 1, 1, 4)
    model = BlowupModel(profile, CurveCenter(genus=0, hc=1))
    with pytest.raises(NonIntegralCharacteristicError):
        chi_riemann_roch(model, H)


# ---------------------------------------------------------------------------
# Euler numbers

def test_euler_blowup(models):
    assert euler_blowup(models["p4-line"]) == 5 + 4
    assert euler_blowup(models["w22-line"]) == 12 + 4
    assert euler_blowup(models["w22-quintic"]) == 12 + 7
    assert euler_blowup(models["w5-xi"]) == 6 + 3
    assert euler_blowup(models["w5-pi"]) == 6 + 3
    assert euler_blowup(models["v14-plane"]) == 12 + 3


def test_euler_blowup_with_positive_genus():
    profile = FourfoldProfile(7, 2, 10, 1, 8)
    model = BlowupModel(profile, CurveCenter(genus=3, hc=4))
    assert euler_blowup(model) == 8 + 2 * (2 - 6)


# ---------------------------------------------------------------------------
# surface and curve helpers

def test_solve_linear():
    assert solve_linear(6, -52, -46) == 1
    assert solve_linear(1, 8, 9) == 1
    assert solve_linear(2, 1, 0) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        solve_linear(0, 1, 0)


def test_adjunction_genus():
    assert adjunction_genus(-5, 7) == 2
    assert adjunction_genus(0, 2) == 2
    with pytest.raises(ValueError):
        adjunction_genus(0, 1)


# ---------------------------------------------------------------------------
# input validation on the data classes

def test_profile_redundancy_check():
    with pytest.raises(ValueError):
        FourfoldProfile(0, 3, 22, 1, 6)
    with pytest.raises(ValueError):
        FourfoldProfile(5, 0, 22, 1, 6)


def test_center_validation():
    with pytest.raises(ValueError):
        CurveCenter(genus=-1, hc=1)
    with pytest.raises(ValueError):
        CurveCenter(genus=0, hc=0)
    with pytest.raises(ValueError):
        SurfaceCenter(hhc=0, hkc=0, kc2=0, euler=0, c2xc=0)
