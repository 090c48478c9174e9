"""Chern engine tests: split-root oracle, Whitney checks, sections."""

import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanocalc.chern import (
    BundleModel,
    TotalChernClass,
    _divide_exactly,
    section_chern,
    tangent_bundle,
    tensor_chern,
    universal_bundles,
)
from fanocalc.profiles import section_profile
from fanocalc.schubert import Grassmannian, sigma, unit, zero
from whitney import whitney_product

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
    return TotalChernClass(ctx, whitney_product(*([unit(ctx), (x + y) * s1] for x in xs for y in ys)))


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
    table = (6 * sigma(GR25, 2) + 3 * sigma(GR25, 1, 1)).terms
    assert _divide_exactly(table, 3) == {(2,): 2, (1, 1): 1}
    with pytest.raises(ValueError, match="^coefficient 3 of \\(1, 1\\) is not divisible by 2$"):
        _divide_exactly(table, 2)


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
    # sub is the dual of the tautological subbundle S, so c_i(S) = (-1)^i c_i(sub)
    c_s = [-c if i % 2 else c for i, c in enumerate(sub.total.components)]
    one, *rest = whitney_product(c_s, quot.total.components)
    assert one == unit(ctx) and all(c.is_zero() for c in rest)


@pytest.mark.parametrize(
    "ctx",
    [GR24, GR25, GR26, GR36, Grassmannian(2, 8), Grassmannian(3, 7), Grassmannian(4, 8)],
    ids=repr,
)
def test_top_chern_integrates_to_euler_number(ctx):
    top = tangent_bundle(ctx).total.component(ctx.dim)
    assert top.integral() == math.comb(ctx.n, ctx.k)


def _transposed(lam):
    return tuple(sum(part > i for part in lam) for i in range(lam[0] if lam else 0))


@pytest.mark.parametrize(
    "k, n",
    # the grass-ladder's tensor rungs, then its two product rungs
    [(2, 5), (2, 6), (3, 6), (2, 7), (2, 8), (3, 7), (3, 8), (4, 8)],
)
def test_tangent_class_is_carried_by_the_duality_route(k, n):
    # Gr(k, n) = Gr(n-k, n) sends sigma_lam to sigma_lam' and the tangent bundle to itself
    ctx, dual = Grassmannian(k, n), Grassmannian(n - k, n)
    ours = tensor_chern(*universal_bundles(ctx))
    theirs = tensor_chern(*universal_bundles(dual))
    assert ours.limit == theirs.limit == ctx.dim
    for c, d in zip(ours.components, theirs.components):
        assert {_transposed(lam): coeff for lam, coeff in c.terms.items()} == d.terms


def test_tangent_chern_classes_of_gr25():
    total = tangent_bundle(GR25).total
    assert total.component(1).terms == {(1,): 5}
    assert total.component(2).terms == {(2,): 11, (1, 1): 12}
    assert total.component(3).terms == {(3,): 15, (2, 1): 30}
    assert total.component(4).terms == {(3, 1): 35, (2, 2): 25}
    assert total.component(5).terms == {(3, 2): 30}
    assert total.component(6).terms == {(3, 3): 10}


def test_bundle_rank_constrains_total_class():
    s1 = sigma(GR25, 1)
    total = TotalChernClass(GR25, [unit(GR25), s1, s1 * s1])
    with pytest.raises(ValueError):
        BundleModel(1, total)


def test_chern_classes_above_the_limit_are_zero_and_below_zero_raise():
    # c_7 of Gr(2,5) is the zero class of codimension 7; there is no c_-1
    total = tangent_bundle(GR25).total
    assert total.component(7) == zero(GR25, 7) and total.component(7) != zero(GR25, 0)
    with pytest.raises(ValueError, match="^a Chern class index must be non-negative, got -1$"):
        total.component(-1)


# ---------------------------------------------------------------------------
# sections by hypersurfaces

def test_w5_section_invariants():
    total = section_chern(tangent_bundle(GR25).total, (1, 1))
    assert total.limit == 4  # components up to the section's dimension
    assert total.component(1).terms == {(1,): 3}
    assert total.component(2).terms == {(2,): 4, (1, 1): 5}
    w5 = section_profile(2, 5, (1, 1))
    assert (w5.h4, w5.index, w5.c2h2, w5.euler) == (5, 3, 22, 6)


def test_v14_section_invariants():
    total = section_chern(tangent_bundle(GR26).total, (1, 1, 1, 1))
    assert total.limit == 4
    assert total.component(1).terms == {(1,): 2}
    assert total.component(2).terms == {(2,): 2, (1, 1): 4}
    v14 = section_profile(2, 6, (1, 1, 1, 1))
    assert (v14.h4, v14.index, v14.c2h2, v14.euler) == (14, 2, 38, 12)


@pytest.mark.parametrize(
    "ctx",
    [GR25, GR26, GR36, Grassmannian(2, 7), Grassmannian(3, 7)],
    ids=repr,
)
def test_section_times_normal_class_is_the_ambient_class(ctx):
    # Whitney on the section: c(X) * prod(1 + d sigma_1) = c(G) restricted to
    # X, so the ambient class returns in every degree up to dim X.  This pins
    # c_3 and c_4 of the sections, which Hilbert polynomials do not see.
    ambient = tangent_bundle(ctx).total
    s1 = sigma(ctx, 1)
    hyperplanes = [(1,) * codim for codim in range(ctx.dim)]
    mixed = [(2,), (1, 2), (2, 3)] if ctx in (GR25, GR26, GR36) else []
    for degrees in hyperplanes + mixed:
        section = section_chern(ambient, degrees).components
        back = whitney_product(section, *([unit(ctx), d * s1] for d in degrees))
        top = ctx.dim - len(degrees)
        assert back[:top + 1] == list(ambient.components[:top + 1]), degrees


def test_codim_zero_section_is_the_ambient_space():
    ambient = tangent_bundle(GR24).total
    assert section_chern(ambient, ()) == ambient
    assert ambient.limit == 4
    gr24 = section_profile(2, 4, ())
    assert (gr24.h4, gr24.index, gr24.euler) == (2, 4, 6)


def test_section_codim_bounds():
    ambient = tangent_bundle(GR25).total
    with pytest.raises(ValueError, match="^section codimension must satisfy 0 <= codim < dim$"):
        section_chern(ambient, (1,) * 6)
    for degrees in ((0,), (1, -1)):
        with pytest.raises(ValueError, match="^hypersurface degrees must be positive$"):
            section_chern(ambient, degrees)


def test_index_of_a_zero_first_chern_class_is_zero():
    # c_1 of the codim-8 section of Gr(2,8) is the zero cycle, whose sigma_1 coefficient reads 0
    c1 = section_chern(tangent_bundle(Grassmannian(2, 8)).total, (1,) * 8).component(1)
    assert c1 == zero(Grassmannian(2, 8), 1)
    assert c1.coefficient((1,)) == 0


def test_sections_of_index_zero_or_below_are_not_fano():
    # c_1 of the codim-8 section of Gr(2,8) is 0 * sigma_1, of Gr(3,7) -1 * sigma_1
    for k, n in ((2, 8), (3, 7)):
        with pytest.raises(ValueError, match="^the Fano index must be positive$"):
            section_profile(k, n, (1,) * 8)
