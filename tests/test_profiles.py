"""Derived numerical profiles and the built-in blowup models."""

import pytest

import hilbert_oracle
from builtin_models import scenario_model
from fanocalc.blowup import CurveCenter, SurfaceCenter
from fanocalc.dsl import _AMBIENTS, _CI_AMBIENTS
from fanocalc.profiles import ci_profile, section_model, section_profile
from fanocalc.schubert import grass_dim


def as_tuple(profile):
    return (profile.h4, profile.index, profile.c2h2, profile.chi, profile.euler)


def test_projective_space_profile():
    assert as_tuple(ci_profile()) == (1, 5, 10, 1, 5)


def test_intersection_of_two_quadrics_profile():
    assert as_tuple(ci_profile((2, 2))) == (4, 3, 20, 1, 12)


def test_cubic_fourfold_profile():
    cubic = ci_profile((3,))
    assert (cubic.h4, cubic.index, cubic.chi, cubic.euler) == (3, 3, 1, 27)


def test_grassmannian_section_profiles():
    assert as_tuple(section_profile(2, 5, 2)) == (5, 3, 22, 1, 6)
    assert as_tuple(section_profile(2, 6, 4)) == (14, 2, 38, 1, 12)


def test_gr24_agrees_with_the_quadric_fourfold():
    # the Pluecker embedding realizes Gr(2,4) as the quadric in P^5
    quadric = ci_profile((2,))
    gr24 = section_profile(2, 4, 0)
    assert as_tuple(quadric) == as_tuple(gr24) == (2, 4, 14, 1, 6)


# The Hilbert-polynomial oracle reaches h4, index, c2h2 and chi without the
# Chern engine; the Euler number has no route there and stays pinned by
# c_top = C(n, k) and the scenario literals.

def oracle_fields(profile):
    return (profile.h4, profile.index, profile.c2h2, profile.chi)


@pytest.mark.parametrize("ambient", sorted(_AMBIENTS))
def test_every_ambient_agrees_with_its_hilbert_polynomial(ambient):
    if ambient in _CI_AMBIENTS:
        degrees = _AMBIENTS[ambient]
        derived, oracle = ci_profile(degrees), hilbert_oracle.ci_profile(degrees)
    else:
        k, n = _AMBIENTS[ambient]
        codim = grass_dim(k, n) - 4
        derived, oracle = section_profile(k, n, codim), hilbert_oracle.section_profile(k, n, codim)
    assert oracle_fields(derived) == oracle


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7)])
def test_fourfold_sections_agree_with_their_hilbert_polynomials(k, n):
    # every fourfold linear section of a Grassmannian up to Gr(3, 7) with index >= 1
    codim = grass_dim(k, n) - 4
    assert oracle_fields(section_profile(k, n, codim)) == hilbert_oracle.section_profile(k, n, codim)


@pytest.mark.parametrize(
    "degrees", [(), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)], ids=str
)
def test_complete_intersections_agree_with_their_hilbert_polynomials(degrees):
    assert oracle_fields(ci_profile(degrees)) == hilbert_oracle.ci_profile(degrees)


def test_hilbert_oracle_self_check():
    # Gr(2, 4) is the quadric in P^5, and Gr(2, 5) has 10 Pluecker coordinates
    assert [hilbert_oracle.grassmannian_h0(2, 4, d) for d in range(4)] == [1, 6, 20, 50]
    assert hilbert_oracle.grassmannian_h0(2, 5, 1) == 10
    assert hilbert_oracle.section_profile(2, 4, 0) == hilbert_oracle.ci_profile((2,)) == (2, 4, 14, 1)
    assert hilbert_oracle.section_profile(2, 5, 2) == (5, 3, 22, 1)
    assert hilbert_oracle.section_profile(2, 6, 4) == (14, 2, 38, 1)
    with pytest.raises(ValueError):
        hilbert_oracle.fourfold_profile(lambda t: t ** 5, 0)


def test_ci_profile_validation():
    with pytest.raises(ValueError):
        ci_profile((1,))
    with pytest.raises(ValueError):
        ci_profile((4, 4))


def test_section_profile_requires_fourfold_codim():
    with pytest.raises(ValueError):
        section_profile(2, 5, 1)
    with pytest.raises(ValueError):
        section_profile(2, 6, 2)


def test_builtin_models(models):
    # the built-in links' profile and center statements, as their scenarios resolve them
    p4, w22 = ci_profile(), ci_profile((2, 2))
    w5, v14 = section_profile(2, 5, 2), section_profile(2, 6, 4)
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


def test_section_model_shape():
    model = section_model(2, 5, 2)
    assert (model.codim, model.dim, model.index) == (2, 4, 3)
