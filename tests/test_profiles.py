"""Derived numerical profiles and the standard blowup models."""

import pytest

import hilbert_oracle
from fanocalc.blowup import BlowupModel, CurveCenter, SurfaceCenter
from fanocalc.dsl import _AMBIENTS, _CI_AMBIENTS
from fanocalc.profiles import (
    ci_profile,
    line_center,
    quintic_del_pezzo_center,
    schubert_plane_center,
    section_model,
    section_profile,
    standard_models,
)
from fanocalc.schubert import grass_dim


def as_tuple(profile):
    return (profile.h4, profile.index, profile.c2h2, profile.chi, profile.euler)


def test_projective_space_profile():
    assert as_tuple(ci_profile("P4")) == (1, 5, 10, 1, 5)


def test_intersection_of_two_quadrics_profile():
    assert as_tuple(ci_profile("W22", (2, 2))) == (4, 3, 20, 1, 12)


def test_cubic_fourfold_profile():
    cubic = ci_profile("X3", (3,))
    assert (cubic.h4, cubic.index, cubic.chi, cubic.euler) == (3, 3, 1, 27)


def test_grassmannian_section_profiles():
    assert as_tuple(section_profile("W5", 2, 5, 2)) == (5, 3, 22, 1, 6)
    assert as_tuple(section_profile("V14", 2, 6, 4)) == (14, 2, 38, 1, 12)


def test_gr24_agrees_with_the_quadric_fourfold():
    # the Pluecker embedding realizes Gr(2,4) as the quadric in P^5
    quadric = ci_profile("Q4", (2,))
    gr24 = section_profile("Gr24", 2, 4, 0)
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
        derived, oracle = ci_profile(ambient, degrees), hilbert_oracle.ci_profile(degrees)
    else:
        k, n = _AMBIENTS[ambient]
        codim = grass_dim(k, n) - 4
        derived, oracle = section_profile(ambient, k, n, codim), hilbert_oracle.section_profile(k, n, codim)
    assert oracle_fields(derived) == oracle


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7)])
def test_fourfold_sections_agree_with_their_hilbert_polynomials(k, n):
    # every fourfold linear section of a Grassmannian up to Gr(3, 7) with index >= 1
    codim = grass_dim(k, n) - 4
    assert oracle_fields(section_profile("X", k, n, codim)) == hilbert_oracle.section_profile(k, n, codim)


@pytest.mark.parametrize(
    "degrees", [(), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)], ids=str
)
def test_complete_intersections_agree_with_their_hilbert_polynomials(degrees):
    assert oracle_fields(ci_profile("X", degrees)) == hilbert_oracle.ci_profile(degrees)


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
        ci_profile("bad", (1,))
    with pytest.raises(ValueError):
        ci_profile("non-fano", (4, 4))


def test_section_profile_requires_fourfold_codim():
    with pytest.raises(ValueError):
        section_profile("bad", 2, 5, 1)
    with pytest.raises(ValueError):
        section_profile("bad", 2, 6, 2)


def test_line_center():
    assert line_center() == CurveCenter(genus=0, hc=1)


def test_schubert_plane_centers():
    xi = schubert_plane_center(2, 5, 2, (2, 2))
    assert xi == SurfaceCenter(hhc=1, hkc=-3, kc2=9, euler=3, c2xc=5)
    pi = schubert_plane_center(2, 5, 2, (3, 1))
    assert pi == SurfaceCenter(hhc=1, hkc=-3, kc2=9, euler=3, c2xc=4)
    plane = schubert_plane_center(2, 6, 4, (4, 2))
    assert plane == SurfaceCenter(hhc=1, hkc=-3, kc2=9, euler=3, c2xc=2)
    for center in (xi, pi, plane):
        assert center.kc2 + center.euler == 12  # Noether for a rational surface
    with pytest.raises(ValueError):
        schubert_plane_center(2, 5, 2, (1,))


def test_quintic_del_pezzo_center():
    center = quintic_del_pezzo_center(ci_profile("W22", (2, 2)))
    assert center == SurfaceCenter(hhc=5, hkc=-5, kc2=5, euler=7, c2xc=25)
    assert center.kc2 + center.euler == 12  # Noether for a rational surface
    with pytest.raises(ValueError):
        quintic_del_pezzo_center(section_profile("W5", 2, 5, 2))


def test_standard_models():
    models = standard_models()
    assert sorted(models) == [
        "p4-line",
        "v14-plane",
        "w22-line",
        "w22-quintic",
        "w5-pi",
        "w5-xi",
    ]
    for model in models.values():
        assert isinstance(model, BlowupModel)
    assert models["p4-line"].base.name == "P4"
    assert models["w5-xi"].center.c2xc == 5
    assert models["w5-pi"].center.c2xc == 4
    assert models["v14-plane"].base.h4 == 14


def test_section_model_shape():
    model = section_model(2, 5, 2)
    assert (model.codim, model.dim, model.index) == (2, 4, 3)
