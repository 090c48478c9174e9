"""Derived numerical profiles and the built-in blowup models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbert_oracle
from builtin_models import scenario_model
from fanocalc import schubert
from fanocalc.blowup import CurveCenter, SurfaceCenter
from fanocalc.dsl import _AMBIENTS
from fanocalc.profiles import FOURFOLD, _pairing, section_model, section_profile
from fanocalc.schubert import Grassmannian, SchubertCycle, grass_dim, sigma
from lr_oracle import box_partitions, lr_coefficient


def as_tuple(profile):
    return (profile.h4, profile.index, profile.c2h2, profile.chi, profile.euler)


# A complete intersection fourfold in P^N is a section of Gr(1, N+1).

def test_projective_space_profile():
    assert as_tuple(section_profile(1, 5, ())) == (1, 5, 10, 1, 5)


def test_intersection_of_two_quadrics_profile():
    assert as_tuple(section_profile(1, 7, (2, 2))) == (4, 3, 20, 1, 12)


def test_cubic_fourfold_profile():
    cubic = section_profile(1, 6, (3,))
    assert (cubic.h4, cubic.index, cubic.chi, cubic.euler) == (3, 3, 1, 27)


def test_grassmannian_section_profiles():
    assert as_tuple(section_profile(2, 5, (1, 1))) == (5, 3, 22, 1, 6)
    assert as_tuple(section_profile(2, 6, (1, 1, 1, 1))) == (14, 2, 38, 1, 12)


def test_gr24_agrees_with_the_quadric_fourfold():
    # the Pluecker embedding realizes Gr(2,4) as the quadric in P^5
    quadric = section_profile(1, 6, (2,))
    gr24 = section_profile(2, 4, ())
    assert as_tuple(quadric) == as_tuple(gr24) == (2, 4, 14, 1, 6)


# The Hilbert-polynomial oracle reaches h4, index, c2h2 and chi without the
# Chern engine.  The Euler number has a closed form on complete
# intersections only; elsewhere it stays pinned by c_top = C(n, k) and the
# scenario literals.

def oracle_fields(profile):
    return (profile.h4, profile.index, profile.c2h2, profile.chi)


def fourfold_degrees(k, n, degrees):
    """``degrees`` and the hyperplanes that cut the rest of Gr(k, n) down to a fourfold."""
    return degrees + (1,) * (grass_dim(k, n) - len(degrees) - 4)


@pytest.mark.parametrize("ambient", sorted(_AMBIENTS))
def test_every_ambient_agrees_with_its_hilbert_polynomial(ambient):
    k, n, degrees = _AMBIENTS[ambient]
    degrees = fourfold_degrees(k, n, degrees)
    assert oracle_fields(section_profile(k, n, degrees)) == hilbert_oracle.section_profile(k, n, degrees)


@pytest.mark.parametrize("ambient", sorted(_AMBIENTS))
def test_c1_of_every_ambient_section_is_its_index_times_sigma_1(ambient):
    # section_profile reads c_1^4, c_1^2 c_2 and c_1 c_3 off the index without
    # multiplying c_1; by adjunction c_1 = (n - sum of the degrees) sigma_1
    k, n, degrees = _AMBIENTS[ambient]
    degrees = fourfold_degrees(k, n, degrees)
    s1 = sigma(Grassmannian(k, n), 1)
    c1 = section_model(k, n, degrees).component(1)
    assert c1 == section_profile(k, n, degrees).index * s1 == (n - sum(degrees)) * s1


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7)])
def test_fourfold_sections_agree_with_their_hilbert_polynomials(k, n):
    # every fourfold linear section of a Grassmannian up to Gr(3, 7) with index >= 1
    degrees = fourfold_degrees(k, n, ())
    assert oracle_fields(section_profile(k, n, degrees)) == hilbert_oracle.section_profile(k, n, degrees)


@pytest.mark.parametrize(
    "degrees", [(), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)], ids=str
)
def test_complete_intersections_agree_with_their_hilbert_polynomials(degrees):
    # all five fields: the Euler number from the closed form of the oracle
    assert as_tuple(section_profile(1, 5 + len(degrees), degrees)) == hilbert_oracle.ci_profile(degrees)


def test_gushel_mukai_fourfold_profile():
    # a quadric section of W5; its b_4 is 24 (Debarre-Kuznetsov), so e = 1 + 1 + 24 + 1 + 1
    gm = section_profile(2, 5, (1, 2))
    assert as_tuple(gm) == as_tuple(section_profile(2, 5, (2, 1))) == (10, 2, 34, 1, 28)
    assert oracle_fields(gm) == hilbert_oracle.section_profile(2, 5, (1, 2))


def test_hypersurface_euler_numbers_have_a_closed_form():
    # e = ((1 - d)^6 - 1) / d + 6 on a hypersurface of degree d in P^5
    closed = {d: ((1 - d) ** 6 - 1) // d + 6 for d in range(1, 6)}
    assert (closed[1], closed[3], closed[4]) == (5, 27, 188)
    assert {d: hilbert_oracle.ci_euler((d,)) for d in closed} == closed
    assert {d: section_profile(1, 6, (d,)).euler for d in closed} == closed


def test_hilbert_oracle_self_check():
    # Gr(2, 4) is the quadric in P^5, Gr(2, 5) has 10 Pluecker coordinates, and P^5 is Gr(1, 6)
    assert [hilbert_oracle.grassmannian_h0(2, 4, d) for d in range(4)] == [1, 6, 20, 50]
    assert hilbert_oracle.grassmannian_h0(2, 5, 1) == 10
    assert [hilbert_oracle.grassmannian_h0(1, 6, d) for d in range(5)] == [1, 6, 21, 56, 126]
    assert hilbert_oracle.section_profile(2, 4, ()) == hilbert_oracle.ci_profile((2,))[:4] == (2, 4, 14, 1)
    assert hilbert_oracle.section_profile(2, 5, (1, 1)) == (5, 3, 22, 1)
    assert hilbert_oracle.section_profile(2, 6, (1, 1, 1, 1)) == (14, 2, 38, 1)
    assert hilbert_oracle.ci_euler(()) == 5 and hilbert_oracle.ci_euler((2, 2)) == 12
    with pytest.raises(ValueError):
        hilbert_oracle.fourfold_profile(lambda t: t ** 5, 0)


def test_ci_profile_validation():
    # a hyperplane section of P^5 is P^4; two quartics in P^6 have index 7 - 8 = -1
    assert section_profile(1, 6, (1,)) == section_profile(1, 5, ())
    with pytest.raises(ValueError, match="^the Fano index must be positive$"):
        section_profile(1, 7, (4, 4))


def test_section_profile_requires_fourfold_codim():
    with pytest.raises(ValueError, match="^codim 1 does not cut Gr\\(2,5\\) down to a fourfold$"):
        section_profile(2, 5, (1,))
    with pytest.raises(ValueError, match="does not cut"):
        section_profile(2, 6, (1, 2))


def test_builtin_models(models):
    # the built-in links' profile and center statements, as their scenarios resolve them
    p4, w22 = section_profile(1, 5, ()), section_profile(1, 7, (2, 2))
    w5, v14 = section_profile(2, 5, (1, 1)), section_profile(2, 6, (1, 1, 1, 1))
    bases = {"p4-line": p4, "w22-line": w22, "w22-quintic": w22, "w5-xi": w5, "w5-pi": w5,
             "v14-plane": v14}
    assert {name: model.base for name, model in models.items()} == bases
    assert models["v14-plane"].base.h4 == 14


def test_line_center(models):
    assert models["p4-line"].center == models["w22-line"].center == CurveCenter(genus=0, hc=1)


_PLANE = dict(hhc=1, hkc=-3, kc2=9, euler=3)


def test_schubert_plane_centers(models):
    # hhc and c2xc are cross-checked against the engine when a scenario resolves its model
    xi, pi, plane = (models[name].center for name in ("w5-xi", "w5-pi", "v14-plane"))
    assert xi == SurfaceCenter(**_PLANE, c2xc=5)
    assert pi == SurfaceCenter(**_PLANE, c2xc=4)
    assert plane == SurfaceCenter(**_PLANE, c2xc=2)
    for center in (xi, pi, plane):
        assert center.kc2 + center.euler == 12  # Noether for a rational surface
    # sigma[4] has the codimension of a surface but lies outside the 2 x 3 box: it is zero
    for cycle in ("sigma[1]", "sigma[4]"):
        with pytest.raises(ValueError, match="not a surface class"):
            scenario_model(_W5_PLANE.format(cycle))


def test_quintic_del_pezzo_center(models):
    center = models["w22-quintic"].center
    assert center == SurfaceCenter(hhc=5, hkc=-5, kc2=5, euler=7, c2xc=25)
    assert center.kc2 + center.euler == 12  # Noether for a rational surface
    with pytest.raises(ValueError, match="disagree with the derived values"):
        scenario_model(_W22_QUINTIC.format(24))


_W5_PLANE = (
    'scenario "plane" {{ profile W5 h4 5 index 3 ambient gr25 codim 2 chi 1 euler 6'
    " center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 5 {} }}"
)
_W22_QUINTIC = (
    'scenario "quintic" {{ profile W22 h4 4 index 3 ambient w22 codim 0 chi 1 euler 12'
    " center surface hhc 5 hkc -5 kc2 5 euler 7 c2xc {} }}"
)


# ---------------------------------------------------------------------------
# the duality pairing that integrates over a section

CONTEXTS = [Grassmannian(2, 5), Grassmannian(2, 6), Grassmannian(3, 6)]


def random_cycle(draw, ctx, codim):
    """A cycle of the given codimension with small random coefficients on every basis class."""
    basis = [lam for lam in box_partitions(ctx.k, ctx.n) if sum(lam) == codim]
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis)))
    return SchubertCycle(ctx, codim, dict(zip(basis, coeffs)))


def oracle_pairing(ctx, a, b):
    """The point-class coefficient of a * b, summed term by term from LR coefficients."""
    point = (ctx.n - ctx.k,) * ctx.k
    return sum(
        x * y * lr_coefficient(lam, mu, point) for lam, x in a.terms.items() for mu, y in b.terms.items()
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairing_is_the_integral_of_the_product(data):
    ctx = data.draw(st.sampled_from(CONTEXTS), label="ctx")
    codim = data.draw(st.integers(0, ctx.dim), label="codim")
    a = random_cycle(data.draw, ctx, codim)
    b = random_cycle(data.draw, ctx, ctx.dim - codim)
    assert _pairing(a, b) == oracle_pairing(ctx, a, b) == _pairing(b, a)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairing_with_the_section_class_is_the_integral_over_the_section(data):
    # the section of degrees d has class prod(d) sigma_1^codim in the Grassmannian
    ctx = data.draw(st.sampled_from(CONTEXTS), label="ctx")
    degrees = data.draw(st.lists(st.integers(1, 4), max_size=ctx.dim - 1), label="degrees")
    alpha = random_cycle(data.draw, ctx, ctx.dim - len(degrees))
    section_class = math.prod(degrees) * sigma(ctx, 1) ** len(degrees)
    assert _pairing(alpha, section_class) == oracle_pairing(ctx, alpha, section_class)


@pytest.mark.parametrize("k, n, degrees, steps", [
    (1, 5, (), 5),  # P^4
    (1, 7, (2, 2), 6),  # W2.2
    (2, 5, (1, 1), 6),  # W5
    (2, 6, (1, 1, 1, 1), 8),  # V14
])
def test_section_profile_work_counts(k, n, degrees, steps, monkeypatch):
    # with the section's Chern classes built, a profile takes the 5 products of
    # its monomials and builds sigma_1^codim once, by codim - 1 Pieri passes and
    # with no product; its integrals take none.  A step is a product or one of
    # the power's passes, so each product the power used to take is one pass.
    section_model(k, n, degrees, FOURFOLD)
    calls, powers, passes = [], [], []
    multiply, power, carry = schubert.multiply, SchubertCycle.__pow__, schubert._carry

    def traced_power(cycle, exponent):
        before = len(passes)
        result = power(cycle, exponent)
        powers.append((exponent, sum(passes[before:])))
        return result

    monkeypatch.setattr(schubert, "multiply", lambda a, b: calls.append(1) or multiply(a, b))
    monkeypatch.setattr(schubert, "_carry", lambda *args: passes.append(args[5]) or carry(*args))
    monkeypatch.setattr(SchubertCycle, "__pow__", traced_power)
    section_profile.__wrapped__(k, n, degrees)
    [(exponent, power_passes)] = powers
    assert (len(calls), exponent, len(calls) + power_passes) == (5, len(degrees), steps)


def test_section_model_shape():
    # W5 = Gr(2,5) cut by two hyperplanes: a fourfold, so components c_0 .. c_4, of index 3
    total = section_model(2, 5, (1, 1))
    assert (total.context, total.limit) == (Grassmannian(2, 5), 4)
    assert section_profile(2, 5, (1, 1)).index == 3
