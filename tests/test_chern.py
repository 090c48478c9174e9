"""Chern engine tests: split-root oracle, Whitney checks, sections."""

import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanocalc.chern import (
    BundleModel,
    SectionModel,
    TotalChernClass,
    _divide_exactly,
    section_chern,
    section_degree,
    tangent_bundle,
    tensor_chern,
    unit_total,
    universal_bundles,
)
from fanocalc.profiles import section_profile
from fanocalc.schubert import Grassmannian, sigma, unit

GR24 = Grassmannian(2, 4)
GR25 = Grassmannian(2, 5)
GR26 = Grassmannian(2, 6)
GR36 = Grassmannian(3, 6)


def split_bundle(ctx, roots):
    """Bundle with split total class prod_i (1 + roots[i] * sigma_1)."""
    s1 = sigma(ctx, 1)
    comps = [unit(ctx)]
    for i in range(1, len(roots) + 1):
        e_i = sum(math.prod(c) for c in combinations(roots, i))
        comps.append(e_i * s1 ** i)
    return BundleModel(len(roots), TotalChernClass(ctx, comps))


def direct_tensor_total(ctx, xs, ys):
    """prod over all root pairs of (1 + (x + y) sigma_1), multiplied out."""
    s1 = sigma(ctx, 1)
    total = unit_total(ctx)
    for x in xs:
        for y in ys:
            total = total * TotalChernClass(ctx, [unit(ctx), (x + y) * s1])
    return total


# ---------------------------------------------------------------------------
# tensor products against split roots

@settings(max_examples=25, deadline=None)
@given(
    xs=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=7),
    ys=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
)
@example(xs=[1, -2, 3, 0, -1, 2, -3], ys=[2, -1])
def test_tensor_chern_matches_split_roots(xs, ys):
    got = tensor_chern(split_bundle(GR26, tuple(xs)), split_bundle(GR26, tuple(ys)))
    assert got == direct_tensor_total(GR26, xs, ys)


def test_tensor_chern_fixed_split_example():
    got = tensor_chern(split_bundle(GR25, (1, -2)), split_bundle(GR25, (3,)))
    assert got == direct_tensor_total(GR25, (1, -2), (3,))


def test_inexact_division_raises_instead_of_rounding():
    cycle = 6 * sigma(GR25, 2) + 3 * sigma(GR25, 1, 1)
    assert _divide_exactly(cycle, 3) == 2 * sigma(GR25, 2) + sigma(GR25, 1, 1)
    with pytest.raises(ValueError):
        _divide_exactly(cycle, 2)


def test_tensor_degree_one_is_mixed_first_chern():
    sub, quot = universal_bundles(GR25)
    c1 = tensor_chern(sub, quot).component(1)
    expected = quot.rank * sub.total.component(1) + sub.rank * quot.total.component(1)
    assert c1 == expected


# ---------------------------------------------------------------------------
# universal bundles and the tangent bundle

@pytest.mark.parametrize("ctx", [GR24, GR25, GR26, GR36], ids=repr)
def test_whitney_identity(ctx):
    sub, quot = universal_bundles(ctx)
    # sub is the dual of the tautological subbundle S, so c(S) = dual total
    assert sub.total.dual() * quot.total == unit_total(ctx)


@pytest.mark.parametrize(
    "ctx",
    [GR24, GR25, GR26, GR36, Grassmannian(2, 8), Grassmannian(3, 7), Grassmannian(4, 8)],
    ids=repr,
)
def test_top_chern_integrates_to_euler_number(ctx):
    top = tangent_bundle(ctx).total.component(ctx.dim)
    assert top.integral() == math.comb(ctx.n, ctx.k)


def test_tangent_chern_classes_of_gr25():
    total = tangent_bundle(GR25).total
    assert total.component(1).terms == {(1,): 5}
    assert total.component(2).terms == {(2,): 11, (1, 1): 12}
    assert total.component(3).terms == {(3,): 15, (2, 1): 30}
    assert total.component(4).terms == {(3, 1): 35, (2, 2): 25}
    assert total.component(5).terms == {(3, 2): 30}
    assert total.component(6).terms == {(3, 3): 10}


def test_dual_is_an_involution():
    sub, _ = universal_bundles(GR26)
    assert sub.total.dual().dual() == sub.total


def test_bundle_rank_constrains_total_class():
    s1 = sigma(GR25, 1)
    total = TotalChernClass(GR25, [unit(GR25), s1, s1 * s1])
    with pytest.raises(ValueError):
        BundleModel(1, total)


# ---------------------------------------------------------------------------
# linear sections

def w5_model() -> SectionModel:
    return section_chern(tangent_bundle(GR25).total, 2)


def v14_model() -> SectionModel:
    return section_chern(tangent_bundle(GR26).total, 4)


def test_w5_section_invariants():
    model = w5_model()
    assert model.dim == 4
    assert model.index == 3
    assert model.chern.component(1).terms == {(1,): 3}
    assert model.chern.component(2).terms == {(2,): 4, (1, 1): 5}
    assert section_degree(model, sigma(GR25, 1) ** 4) == 5
    assert section_degree(model, model.chern.component(2) * sigma(GR25, 1) ** 2) == 22
    assert section_degree(model, model.chern.component(model.dim)) == 6


def test_v14_section_invariants():
    model = v14_model()
    assert model.dim == 4
    assert model.index == 2
    assert model.chern.component(1).terms == {(1,): 2}
    assert model.chern.component(2).terms == {(2,): 2, (1, 1): 4}
    assert section_degree(model, sigma(GR26, 1) ** 4) == 14
    assert section_degree(model, model.chern.component(2) * sigma(GR26, 1) ** 2) == 38
    assert section_degree(model, model.chern.component(model.dim)) == 12


@pytest.mark.parametrize(
    "ctx",
    [GR25, GR26, GR36, Grassmannian(2, 7), Grassmannian(3, 7)],
    ids=repr,
)
def test_section_times_normal_class_is_the_ambient_class(ctx):
    # Whitney on the section: c(X) * (1 + sigma_1)^codim = c(G) restricted to
    # X, so the ambient class returns in every degree up to dim X.  This pins
    # c_3 and c_4 of the sections, which Hilbert polynomials do not see.
    ambient = tangent_bundle(ctx).total
    s1 = sigma(ctx, 1)
    for codim in range(ctx.dim):
        normal = TotalChernClass(ctx, [math.comb(codim, t) * s1 ** t for t in range(codim + 1)])
        back = section_chern(ambient, codim).chern * normal
        top = ctx.dim - codim
        assert [back.component(m) for m in range(top + 1)] == [ambient.component(m) for m in range(top + 1)], codim


def test_codim_zero_section_is_the_ambient_space():
    model = section_chern(tangent_bundle(GR24).total, 0)
    assert model.dim == 4
    assert model.index == 4
    assert section_degree(model, sigma(GR24, 1) ** 4) == 2
    assert section_degree(model, model.chern.component(model.dim)) == 6


def test_section_codim_bounds():
    ambient = tangent_bundle(GR25).total
    with pytest.raises(ValueError):
        section_chern(ambient, -1)
    with pytest.raises(ValueError):
        section_chern(ambient, 6)


def test_index_of_a_zero_first_chern_class_is_zero():
    assert SectionModel(GR25, 0, unit_total(GR25, 1)).index == 0


def test_sections_of_index_zero_or_below_are_not_fano():
    # c_1 of the codim-8 section of Gr(2,8) is 0 * sigma_1, of Gr(3,7) -1 * sigma_1
    for k, n in ((2, 8), (3, 7)):
        with pytest.raises(ValueError, match="^the Fano index must be positive$"):
            section_profile("X", k, n, 8)
