"""Acceptance suite: every verification chain, exact integers, tolerance zero.

Each test covers one acceptance criterion end to end and prints a PASS line
so a log of this module reads as the final verification table.  Nothing here
is approximate: every comparison is an integer equality.
"""

import json
import math

from fanocalc.blowup import (
    E,
    H,
    adjunction_genus,
    chi_riemann_roch,
    euler_blowup,
    quartic_number,
)
from fanocalc.chern import tangent_bundle, universal_bundles
from fanocalc.cli import main
from fanocalc.dsl import ParseError, parse
from fanocalc.profiles import section_model, section_profile
from fanocalc.scenarios import BUILTIN_SOURCES, builtin_scenarios, run
from fanocalc.schubert import Grassmannian, sigma, unit

from builtin_models import builtin_models, normal_c2
from lr_oracle import box_complement, box_partitions, oracle_product
from whitney import whitney_product

import io

GR25 = Grassmannian(2, 5)
GR26 = Grassmannian(2, 6)
MODELS = builtin_models()


def test_criterion_1_schubert_chern_layer():
    total = tangent_bundle(GR25)
    assert total.component(2).terms == {(2,): 11, (1, 1): 12}
    assert total.component(3).terms == {(3,): 15, (2, 1): 30}
    assert total.component(4).terms == {(3, 1): 35, (2, 2): 25}
    w5 = section_model(2, 5, (1, 1))
    assert w5.component(1).terms == {(1,): 3}
    assert w5.component(2).terms == {(2,): 4, (1, 1): 5}
    assert section_profile(2, 5, (1, 1)).euler == 6
    v14 = section_model(2, 6, (1, 1, 1, 1))
    assert v14.component(2).terms == {(2,): 2, (1, 1): 4}
    assert section_profile(2, 6, (1, 1, 1, 1)).euler == 12
    assert (sigma(GR25, 1) ** 6).integral() == 5
    assert (sigma(GR26, 1) ** 8).integral() == 14
    print("PASS criterion 1: Chern classes of Gr(2,5), W5, V14 and both degrees")


def test_criterion_2_plane_geometry():
    # normal bundles (c_1 on a line, c_2): c_1(N) = c_1(section) - c_1(P^2), and
    # c_2(N) = E^4 + c_1(N)^2 on the blowup of the link scenario
    w5, v14 = section_profile(2, 5, (1, 1)), section_profile(2, 6, (1, 1, 1, 1))
    xi_xi = normal_c2(MODELS["w5-xi"])
    pi_pi = normal_c2(MODELS["w5-pi"])
    assert (w5.index - 3, xi_xi) == (0, 2)
    assert (w5.index - 3, pi_pi) == (0, 1)
    assert (v14.index - 3, normal_c2(MODELS["v14-plane"])) == (-1, 2)
    # sigma_1^2 . [W5] = 2 sigma_{2,2} + 3 sigma_{3,1}, so h^2 = 2 Xi + 3 Pi on W5
    assert (sigma(GR25, 1) ** 4).terms == {(3, 1): 3, (2, 2): 2}
    # h^2 . Xi = 2 Xi^2 + 3 Pi.Xi and h^2 . Pi = 2 Xi.Pi + 3 Pi^2 both force Pi.Xi = -1
    s1sq = sigma(GR25, 1) ** 2
    assert (s1sq * sigma(GR25, 2, 2)).integral() == 1 == 2 * xi_xi + 3 * (-1)
    assert (s1sq * sigma(GR25, 3, 1)).integral() == 1 == 2 * (-1) + 3 * pi_pi
    assert xi_xi * pi_pi - (-1) * (-1) == 1
    print("PASS criterion 2: plane normal bundles (0,2), (0,1), (-1,2) and unimodular matrix")


def test_criterion_3_w22_line_link():
    model = MODELS["w22-line"]
    l, d = H - E, 2 * H - 3 * E
    assert quartic_number(model, l, l, l, l) == 1
    assert quartic_number(model, l, l, l, d) == 0
    assert quartic_number(model, l, l, d, d) == -5
    assert chi_riemann_roch(model, l) == 5
    print("PASS criterion 3: W2.2 line link chain (1, 0, -5, chi 5)")


def test_criterion_4_w5_links():
    xi = MODELS["w5-xi"]
    l = H - E
    assert quartic_number(xi, l, l, l, l) == 1
    assert quartic_number(xi, l, l, l, E) == 1
    assert quartic_number(xi, l, l, l, H - 2 * E) == 0
    pi = MODELS["w5-pi"]
    assert quartic_number(pi, l, l, l, l) == 0
    assert quartic_number(pi, l, l, l, E) == 2
    assert chi_riemann_roch(pi, l) == 5
    # K_E^3 = (K + E)^3 . E = -46 forces deg Y = 1 in -54 + 6y + 2 = -46
    k_plus_e = -pi.c1 + E
    assert quartic_number(pi, k_plus_e, k_plus_e, k_plus_e, E) == -46
    assert (-46 - (-54 + 2)) // 6 == 1
    assert euler_blowup(pi) == 6 + 3 == 9
    # Euler bookkeeping 9 = 8 + n forces exactly one two-dimensional fiber
    assert euler_blowup(pi) - 8 == 1
    print("PASS criterion 4: W5 Xi and Pi link chains with deg Y = 1 and n = 1")


def test_criterion_5_v14_link():
    model = MODELS["v14-plane"]
    l, d = H - E, H - 2 * E
    assert quartic_number(model, l, l, l, l) == 5
    assert quartic_number(model, l, l, l, d) == 0
    assert quartic_number(model, l, l, d, d) == -7
    assert quartic_number(model, l, l, l, E) == 5
    assert chi_riemann_roch(model, l) == 8
    # F = phi(D) on the other side of the link, which has index 3
    degree_f = -quartic_number(model, l, l, d, d)
    assert degree_f == 7
    assert quartic_number(model, l, d, d, d) + 3 * degree_f == 5  # L . (-K_F)
    euler_f = euler_blowup(model) - 6
    assert euler_f == 9
    # Noether for the rational surface F: K_F^2 = 12 - Eu(F), rk Pic(F) = 10 - K_F^2
    assert 12 - euler_f == 3
    assert 10 - (12 - euler_f) == 7
    assert adjunction_genus(-5, 7) == 2
    print("PASS criterion 5: V14 link chain (5, 0, -7, 5, chi 8, F: 7/5/9/3/7, genus 2)")


def test_criterion_6_v12_link():
    model = MODELS["w22-quintic"]
    l, d = 2 * H - E, H - E
    assert quartic_number(model, l, l, l, l) == 12
    # the target has index 2, so L^4 = 2g - 2 gives genus 7
    assert quartic_number(model, l, l, l, l) // 2 + 1 == 7
    assert quartic_number(model, l, l, l, d) == 0
    assert quartic_number(model, l, l, d, d) == -1
    assert chi_riemann_roch(model, l) == 10
    assert -quartic_number(model, l, l, d, d) == 1
    print("PASS criterion 6: V12 link chain (12, genus 7, 0, -1, chi 10, deg 1)")


def test_criterion_7_moduli_counts():
    from fanocalc.schubert import grass_dim

    assert grass_dim(8, 12) == 32
    assert 32 + 11 == 43
    assert grass_dim(11, 15) == 44
    assert grass_dim(11, 15) - 43 == 1
    assert 5 + 7 == 12
    assert grass_dim(2, 12) == 20
    assert grass_dim(2, 12) - 7 == 13
    print("PASS criterion 7: moduli counts 32/43/44 (codim 1) and 12/20/13")


def test_criterion_8_property_suites():
    # LR-oracle equivalence on every basis product
    for ctx in (GR25, GR26):
        for lam in box_partitions(ctx.k, ctx.n):
            for mu in box_partitions(ctx.k, ctx.n):
                got = (sigma(ctx, *lam) * sigma(ctx, *mu)).terms
                assert got == oracle_product(ctx.k, ctx.n, lam, mu)
    # Poincare duality is a permutation pairing
    for ctx in (GR25, GR26):
        for lam in box_partitions(ctx.k, ctx.n):
            for mu in box_partitions(ctx.k, ctx.n):
                if sum(lam) + sum(mu) == ctx.dim:
                    pairing = (sigma(ctx, *lam) * sigma(ctx, *mu)).integral()
                    assert pairing == (1 if mu == box_complement(ctx.k, ctx.n, lam) else 0)
    # Whitney identity and the Euler number of the tangent bundle
    for k, n in ((2, 4), (2, 5), (2, 6), (3, 6)):
        ctx = Grassmannian(k, n)
        sub, quot = universal_bundles(ctx)
        c_s = [-c if i % 2 else c for i, c in enumerate(sub.total.components)]
        one, *rest = whitney_product(c_s, quot.total.components)
        assert one == unit(ctx) and all(c.is_zero() for c in rest)
        assert tangent_bundle(ctx).component(ctx.dim).integral() == math.comb(n, k)
    # Serre duality chi(D) = chi(K - D) over every model, |a|, |b| <= 3
    for model in MODELS.values():
        k = -model.c1
        for a in range(-3, 4):
            for b in range(-3, 4):
                d = a * H + b * E
                assert chi_riemann_roch(model, d) == chi_riemann_roch(model, k - d)
    # projection oracles out of projective space
    p4 = MODELS["p4-line"]
    assert quartic_number(p4, H - E, H - E, H - E, H - E) == 0
    for m in range(4):
        assert chi_riemann_roch(p4, m * H) == math.comb(m + 4, 4)
    # blowing up a line in P^3: K^3 = K_X^3 - 2 K_X . C + 2 - 2g = -54
    assert -64 - 2 * (-4) + 2 - 2 * 0 == -54
    print("PASS criterion 8: LR oracle, duality, Whitney, c_top, Serre, projections")


def test_criterion_9_tooling():
    out = io.StringIO()
    assert main(["run", "--all"], out=out, err=out) == 0
    # deterministic report: byte-identical JSON on repeated runs
    first = run(builtin_scenarios()).to_json()
    second = run(builtin_scenarios()).to_json()
    assert first == second
    assert json.loads(first)["failed"] == 0
    # parser totality over a deterministic corpus of malformed inputs
    source = BUILTIN_SOURCES["w5-xi-link"]
    corpus = [source[:i] for i in range(0, len(source), 7)]
    corpus += ["\x00", "{", "}", '"', "scenario", 'scenario "x" {', "-" * 500 + "1"]
    for text in corpus:
        try:
            parse(text)
        except ParseError:
            pass
    # emit -> parse -> run reproduces the built-in results exactly
    full = {s["name"]: s for s in json.loads(run(builtin_scenarios()).to_json())["scenarios"]}
    for name in BUILTIN_SOURCES:
        emitted = io.StringIO()
        assert main(["emit", name], out=emitted, err=emitted) == 0
        again = json.loads(run(parse(emitted.getvalue()).build()).to_json())["scenarios"]
        assert again == [full[name]]
    print("PASS criterion 9: exit codes, deterministic JSON, fuzz totality, round trip")
