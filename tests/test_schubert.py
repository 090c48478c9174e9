"""Schubert calculus against an independent Littlewood-Richardson oracle."""

import math
import operator
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanocalc import chern, schubert
from fanocalc.chern import tensor_chern, universal_bundles
from fanocalc.schubert import (
    ContextMismatchError,
    Grassmannian,
    SchubertCycle,
    grass_dim,
    normalize_partition,
    sigma,
    unit,
    zero,
)

from lr_oracle import box_complement, box_partitions, lr_coefficient, oracle_product

GR24 = Grassmannian(2, 4)
GR25 = Grassmannian(2, 5)
GR26 = Grassmannian(2, 6)
GR36 = Grassmannian(3, 6)
GR27 = Grassmannian(2, 7)
GR35 = Grassmannian(3, 5)  # k > n - k: columns are shorter than rows
GR46 = Grassmannian(4, 6)
GR37 = Grassmannian(3, 7)


# ---------------------------------------------------------------------------
# oracle equivalence

@pytest.mark.parametrize(
    "ctx",
    [GR25, GR26, GR36, GR27, GR35, GR46, GR37, Grassmannian(5, 7), Grassmannian(4, 8)],
    ids=repr,
)
def test_all_basis_products_match_lr_oracle(ctx):
    for lam in box_partitions(ctx.k, ctx.n):
        for mu in box_partitions(ctx.k, ctx.n):
            got = (sigma(ctx, *lam) * sigma(ctx, *mu)).terms
            want = oracle_product(ctx.k, ctx.n, lam, mu)
            assert got == want, (lam, mu)


def test_gr36_products_match_lr_oracle():
    # spot checks with three-row partitions (Giambelli uses 3x3 determinants)
    pairs = [
        ((1,), (1,)),
        ((2, 1), (2, 1)),
        ((1, 1, 1), (2, 1)),
        ((2, 2), (2, 1, 1)),
        ((3, 2, 1), (2, 1)),
        ((2, 1, 1), (2, 1, 1)),
    ]
    for lam, mu in pairs:
        got = (sigma(GR36, *lam) * sigma(GR36, *mu)).terms
        want = oracle_product(3, 6, lam, mu)
        assert got == want, (lam, mu)


def _oracle_bilinear(a, b):
    """a * b as the bilinear sum of the oracle's basis products."""
    ctx = a.context
    out = {}
    for lam, ca in a.terms.items():
        for mu, cb in b.terms.items():
            for nu, c in oracle_product(ctx.k, ctx.n, lam, mu).items():
                out[nu] = out.get(nu, 0) + ca * cb * c
    return {nu: c for nu, c in out.items() if c}


def test_gr48_multi_term_products_match_lr_oracle():
    # four-row partitions, whose Giambelli words merge, and a factor with
    # several terms, whose words share one table
    gr48 = Grassmannian(4, 8)
    pairs = [
        (sigma(gr48, 2, 1, 1, 1), sigma(gr48, 2, 2, 1, 1)),
        (sigma(gr48, 3, 2, 1, 1), sigma(gr48, 1, 1, 1, 1)),
        (sigma(gr48, 2, 1, 1, 1) - sigma(gr48, 2, 2, 1) + 3 * sigma(gr48, 3, 1, 1), sigma(gr48, 1, 1, 1)),
    ]
    for a, b in pairs:
        assert (a * b).terms == (b * a).terms == _oracle_bilinear(a, b), (a, b)


def test_lr_oracle_self_check():
    # the classical sigma_1^2 = sigma_2 + sigma_{1,1} identity
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


# ---------------------------------------------------------------------------
# frozen integrals used throughout the verification chains

def test_power_integrals_are_catalan_numbers():
    # deg Gr(2, n) in the Pluecker embedding is the Catalan number C_{n-2}
    for n, catalan in ((4, 2), (5, 5), (6, 14)):
        ctx = Grassmannian(2, n)
        assert (sigma(ctx, 1) ** ctx.dim).integral() == catalan


def test_sigma1_fourth_power_in_gr25():
    cycle = sigma(GR25, 1) ** 4
    assert cycle.terms == {(3, 1): 3, (2, 2): 2}


def test_integral_of_non_top_cycle_is_zero():
    assert (sigma(GR25, 1) ** 3).integral() == 0
    assert sigma(GR25, 2, 1).integral() == 0


def test_point_class_integrates_to_one():
    for ctx in (GR24, GR25, GR26, GR36):
        assert sigma(ctx, *(ctx.width,) * ctx.k).integral() == 1  # the full box


# ---------------------------------------------------------------------------
# Poincare duality

@pytest.mark.parametrize("ctx", [GR24, GR25, GR26, GR36], ids=repr)
def test_duality_pairing_is_a_permutation_matrix(ctx):
    for lam in box_partitions(ctx.k, ctx.n):
        for mu in box_partitions(ctx.k, ctx.n):
            if sum(lam) + sum(mu) != ctx.dim:
                continue
            pairing = (sigma(ctx, *lam) * sigma(ctx, *mu)).integral()
            expected = 1 if mu == box_complement(ctx.k, ctx.n, lam) else 0
            assert pairing == expected, (lam, mu)


def test_dual_partition_examples():
    # sigma_lam * sigma_mu integrates to 1 exactly when mu is lam's dual label
    for ctx, lam, mu in [
        (GR25, (1,), (3, 2)),
        (GR25, (2,), (3, 1)),
        (GR25, (1, 1), (2, 2)),
        (GR25, (3,), (3,)),
        (GR25, (2, 1), (2, 1)),
        (GR26, (1,), (4, 3)),
        (GR26, (1, 1), (3, 3)),
    ]:
        assert (sigma(ctx, *lam) * sigma(ctx, *mu)).integral() == 1, (ctx, lam)
    for lam, mu in [((2,), (2, 2)), ((1, 1), (3, 1)), ((3,), (2, 1))]:
        assert (sigma(GR25, *lam) * sigma(GR25, *mu)).integral() == 0, lam


def test_dual_partition_is_an_involution():
    # each basis class has one partner of integral 1, and its partner's partner is itself
    for ctx in (GR25, GR36):
        basis = box_partitions(ctx.k, ctx.n)

        def partner(lam):
            (mu,) = [mu for mu in basis if sum(lam) + sum(mu) == ctx.dim
                     and (sigma(ctx, *lam) * sigma(ctx, *mu)).integral() == 1]
            return mu

        for lam in basis:
            assert partner(partner(lam)) == lam


# ---------------------------------------------------------------------------
# ring axioms (property-based)

def _basis(ctx, codim):
    return [lam for lam in box_partitions(ctx.k, ctx.n) if sum(lam) == codim]


def _cycles(ctx):
    labels = st.sampled_from(box_partitions(ctx.k, ctx.n))
    coeffs = st.integers(min_value=-4, max_value=4)
    return st.builds(lambda lam, c: sigma(ctx, *lam) * c, labels, coeffs)


def _sums_of(ctx, codim):
    """Cycles of one codimension with several terms."""
    coeffs = st.integers(min_value=-3, max_value=3)
    return st.builds(
        lambda cs: SchubertCycle(ctx, codim, dict(zip(_basis(ctx, codim), cs))),
        st.lists(coeffs, min_size=len(_basis(ctx, codim)), max_size=len(_basis(ctx, codim))),
    )


def _sums(ctx):
    """Homogeneous cycles with several terms, so the two factors of a product
    usually have different numbers of Giambelli words."""
    return st.integers(min_value=0, max_value=ctx.dim).flatmap(lambda codim: _sums_of(ctx, codim))


def _tuples(ctx, size):
    return st.tuples(*(_sums(ctx) for _ in range(size)))


@settings(max_examples=60, deadline=None)
@given(abc=st.one_of(_tuples(GR25, 3), _tuples(GR36, 3)))
def test_product_is_associative_and_commutative(abc):
    a, b, c = abc
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(ab=st.one_of(_tuples(GR26, 2), _tuples(GR36, 2), _tuples(GR46, 2)))
def test_multi_term_products_match_lr_oracle(ab):
    a, b = ab
    assert (a * b).terms == _oracle_bilinear(a, b)


@settings(max_examples=60, deadline=None)
@given(
    ab=st.one_of(_tuples(GR25, 2), _tuples(GR26, 2), _tuples(GR36, 2), _tuples(GR46, 2)),
    p=st.integers(min_value=0, max_value=4),
    e=st.integers(min_value=0, max_value=3),
)
def test_kernel_results_pass_public_validation(ab, p, e):
    # the kernel skips validation; the public constructor must accept and
    # reproduce every cycle it builds
    a, b = ab
    results = [a * b, -a, 3 * a, a * 0, a.pieri(p), a ** e, a + 3 * a, a - a]
    if a.codim == b.codim:
        results.append(a + b)
    for r in results:
        assert r == SchubertCycle(r.context, r.codim, r.terms)
        assert all(r.terms.values())


def _top_degree_pairs(ctx):
    """Pairs of cycles with several terms whose codimensions add up to the dimension."""
    return st.integers(min_value=0, max_value=ctx.dim).flatmap(
        lambda codim: st.tuples(_sums_of(ctx, codim), _sums_of(ctx, ctx.dim - codim))
    )


def _single_pairs_below_top(ctx):
    """Pairs of scaled basis classes whose codimensions add up to less than the dimension."""
    single = _cycles(ctx).filter(lambda c: len(c.terms) == 1)
    return st.tuples(single, single).filter(lambda ab: ab[0].codim + ab[1].codim < ctx.dim)


@settings(max_examples=80, deadline=None)
@given(ab=st.one_of(*(
    strategy(ctx) for ctx in (GR25, GR26, GR36, GR46) for strategy in (_top_degree_pairs, _single_pairs_below_top)
)))
def test_products_read_off_by_duality_match_lr_oracle(ab):
    # a top-degree product is the Poincare pairing times the point class, and
    # a pair of single classes that fails the box test is zero: both are read
    # off without a Pieri step, and both must be the oracle's bilinear sum
    a, b = ab
    ab, ba = a * b, b * a
    assert ab.terms == ba.terms == _oracle_bilinear(a, b), (a, b)
    assert ab.codim == ba.codim == a.codim + b.codim


def _conjugate(lam):
    """The transposed partition: its parts are the column lengths of lam."""
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0] if lam else 0))


def _transposed(cycle):
    """The image of a cycle of Gr(k, n) in Gr(n - k, n) under sigma_lam -> sigma_lam'."""
    ctx = cycle.context
    terms = {_conjugate(lam): c for lam, c in cycle.terms.items()}
    return SchubertCycle(Grassmannian(ctx.n - ctx.k, ctx.n), cycle.codim, terms)


@settings(max_examples=60, deadline=None)
@given(ab=st.one_of(*(_tuples(ctx, 2) for ctx in (GR25, GR35, GR36, GR46, GR37))))
def test_transposing_partitions_is_a_ring_isomorphism(ab):
    # H*(Gr(k, n)) -> H*(Gr(n - k, n)), sigma_lam -> sigma_lam' (Fulton, Young Tableaux, 9.4)
    a, b = ab
    assert _transposed(a * b) == _transposed(a) * _transposed(b)
    assert _transposed(_transposed(a)) == a


@settings(max_examples=60, deadline=None)
@given(a=_cycles(GR25), b=_cycles(GR25))
def test_product_distributes_when_codims_agree(a, b):
    s = sigma(GR25, 1)
    if a.codim == b.codim:
        assert (a + b) * s == a * s + b * s


@settings(max_examples=40, deadline=None)
@given(a=_cycles(GR26))
def test_unit_and_zero_behave(a):
    assert a * unit(GR26) == a
    assert (a * zero(GR26)).is_zero()
    assert a - a == zero(GR26, a.codim)


@settings(max_examples=40, deadline=None)
@given(a=_cycles(GR26))
def test_equality_is_a_bool(a):
    assert (a == a) is True
    assert (a == zero(GR26, a.codim + 1)) is False


# ---------------------------------------------------------------------------
# Pieri strips

def test_row_pieri_matches_oracle():
    for lam in box_partitions(2, 6):
        for p in range(1, 4):
            got = sigma(GR26, *lam).pieri(p).terms
            assert got == oracle_product(2, 6, lam, (p,)), (lam, p)


def test_pieri_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sigma(GR25, 1).pieri(-1)
    # the row rule is the only strip kind; a second argument is not accepted
    with pytest.raises(TypeError):
        sigma(GR25, 1).pieri(1, "diagonal")


# ---------------------------------------------------------------------------
# Giambelli words

def _permutation_expansion(lam):
    """det(sigma_{lam_i + j - i}) summed term by term over all r! permutations, words merged."""
    r = len(lam)
    words = {}
    for perm in permutations(range(r)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(r) for j in range(i + 1, r))
        letters = [lam[i] + perm[i] - i for i in range(r)]
        if all(m >= 0 for m in letters):
            word = tuple(sorted((m for m in letters if m), reverse=True))
            words[word] = words.get(word, 0) + sign
    return {word: weight for word, weight in words.items() if weight}


@pytest.mark.parametrize("k, n", [(4, 8), (3, 7)])
def test_giambelli_words_match_the_permutation_expansion(k, n):
    for lam in box_partitions(k, n):
        pairs = schubert._giambelli_monomials(lam)
        words = {word: weight for weight, word in pairs}
        assert len(words) == len(pairs) and all(words.values()), lam  # merged, none cancelled
        assert words == _permutation_expansion(lam), lam


# ---------------------------------------------------------------------------
# work counts of the product kernel (deterministic, unlike its timings)

def _strip_lookups(work):
    schubert._row_strips.cache_clear()
    work()
    info = schubert._row_strips.cache_info()
    return info.hits + info.misses


def _products(work, monkeypatch):
    """Calls of the product kernel, wherever the package looks it up."""
    calls = []
    original = schubert.multiply

    def counted(a, b):
        calls.append(None)
        return original(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(schubert, "multiply", counted)
        patch.setattr(chern, "multiply", counted)
        work()
    return len(calls)


def test_kernel_work_counts(monkeypatch):
    gr48 = Grassmannian(4, 8)
    # products of the tangent bundle's class: none with a component above a factor's limit
    for ctx, products in ((GR25, 70), (gr48, 397)):
        assert _products(lambda: tensor_chern(*universal_bundles(ctx)), monkeypatch) == products, ctx
    # ... and of the class built to degree 4, as a fourfold reads it: none above it
    gr612 = Grassmannian(6, 12)
    for ctx, products in ((gr48, 37), (gr612, 37)):
        assert _products(lambda: tensor_chern(*universal_bundles(ctx), 4), monkeypatch) == products, ctx
    assert _products(lambda: tensor_chern(*universal_bundles(gr612)), monkeypatch) == 1759
    # strip-table lookups of the tangent bundle's class
    assert _strip_lookups(lambda: tensor_chern(*universal_bundles(gr48))) == 4321
    # ... and of the products of all pairs of basis classes, each unordered pair once
    for ctx, lookups in ((Grassmannian(3, 8), 1523), (gr48, 2650)):
        basis = [sigma(ctx, *lam) for lam in box_partitions(ctx.k, ctx.n)]
        assert _strip_lookups(lambda: [a * b for i, a in enumerate(basis) for b in basis[i:]]) == lookups, ctx
    # the product chooses what to expand from shapes alone, so only the
    # partitions it expands reach the Giambelli table
    schubert._giambelli_monomials.cache_clear()
    tensor_chern(*universal_bundles(Grassmannian(5, 10)))
    assert schubert._giambelli_monomials.cache_info().misses == 105
    # the special classes commute, so words with the same letters are merged
    assert sum(len(schubert._giambelli_monomials(lam)) for lam in box_partitions(4, 8)) == 535


def test_vanishing_and_top_degree_products_make_no_strip_lookups():
    gr48 = Grassmannian(4, 8)
    # (4, 4, 4) does not fit in (1, 1)^vee = (4, 4, 3, 3), so the product is zero below the top
    vanishing = (sigma(gr48, 4, 4, 4), sigma(gr48, 1, 1))
    # codimensions 3 + 13 = 16, the dimension: the pairing of the two tables
    top = (
        2 * sigma(gr48, 2, 1) - sigma(gr48, 1, 1, 1) + 5 * sigma(gr48, 3),
        sigma(gr48, 4, 4, 3, 2) + sigma(gr48, 4, 4, 4, 1),
    )
    schubert._giambelli_monomials.cache_clear()
    results = []
    assert _strip_lookups(lambda: results.extend(a * b for a, b in (vanishing, top))) == 0
    assert schubert._giambelli_monomials.cache_info().misses == 0
    assert results[0] == zero(gr48, 14)
    assert results[1] == 7 * sigma(gr48, 4, 4, 4, 4)  # (2, 1) and (3) meet their duals; (1, 1, 1) does not


# ---------------------------------------------------------------------------
# contexts, normalization, bookkeeping

def test_out_of_box_sigma_is_zero():
    assert sigma(GR25, 4).is_zero()
    assert sigma(GR25, 1, 1, 1).is_zero()


def test_context_mismatch_is_rejected():
    with pytest.raises(ContextMismatchError):
        sigma(GR25, 1) * sigma(GR26, 1)
    with pytest.raises(ContextMismatchError):
        sigma(GR25, 1) + sigma(GR26, 1)


def test_mixed_codimension_sum_is_rejected():
    with pytest.raises(ValueError):
        sigma(GR25, 1) + sigma(GR25, 2)


def test_a_zero_cycle_adds_only_in_its_own_codimension():
    # a zero cycle keeps its codimension, so it is no identity for a sum of another
    for a, b in ((zero(GR25, 1), sigma(GR25, 2)), (sigma(GR25, 2), zero(GR25, 1)),
                 (zero(GR25, 1), zero(GR25, 2))):
        for combine in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="^cannot add cycles of different codimension$"):
                combine(a, b)
    assert zero(GR25, 2) + sigma(GR25, 2) == sigma(GR25, 2) == sigma(GR25, 2) - zero(GR25, 2)
    total = zero(GR25, 2) + zero(GR25, 2)
    assert total.is_zero() and total.codim == 2


def test_normalize_partition():
    assert normalize_partition((3, 1, 0, 0)) == (3, 1)
    assert normalize_partition([]) == ()
    with pytest.raises(ValueError):
        normalize_partition((1, 2))
    with pytest.raises(ValueError):
        normalize_partition((2, -1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=5))
def test_normalize_partition_totality(parts):
    ordered = tuple(sorted(parts, reverse=True))
    result = normalize_partition(ordered)
    assert all(p > 0 for p in result)
    assert sum(result) == sum(ordered)


def _first_normalize_partition(parts):
    """normalize_partition as first written, three scans and a loop: the oracle of the next test."""
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in partition {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _outcome(normalize, parts):
    """What ``normalize(parts)`` returns, or its error's type and message."""
    try:
        return normalize(parts)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_PARTS = st.integers(min_value=-3, max_value=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(_PARTS, max_size=6),  # negative parts and rising pairs
    st.tuples(st.lists(_PARTS, max_size=5), st.integers(min_value=1, max_value=3)).map(
        lambda t: sorted(t[0], reverse=True) + [0] * t[1]),  # decreasing, with trailing zeros
    st.lists(st.sampled_from([2, 1, 0, True, "3", "x", 1.5, None]), max_size=4),
).flatmap(lambda parts: st.sampled_from([parts, tuple(parts)])))
@example([])
@example(())
@example([0, 0])
@example([-1, 0])
@example([0, 1])
@example([2, 0, 1])
def test_normalize_partition_matches_its_first_definition(parts):
    assert _outcome(normalize_partition, parts) == _outcome(_first_normalize_partition, parts)


def test_dimension_and_euler_counts():
    assert grass_dim(2, 5) == 6
    assert grass_dim(2, 6) == 8
    assert grass_dim(3, 6) == 9
    for k, n in ((2, 4), (2, 5), (2, 6), (3, 6)):
        assert math.comb(n, k) == len(box_partitions(k, n))


def test_invalid_grassmannian_is_rejected():
    with pytest.raises(ValueError):
        Grassmannian(0, 3)
    with pytest.raises(ValueError):
        Grassmannian(3, 3)


def test_cycle_powers():
    s1 = sigma(GR25, 1)
    assert s1 ** 0 == unit(GR25)
    assert s1 ** 1 == s1
    with pytest.raises(ValueError):
        s1 ** -1


@settings(max_examples=60, deadline=None)
@given(a=st.one_of(*(strategy(ctx) for ctx in (GR25, GR36, GR27, GR37) for strategy in (_cycles, _sums))))
@example(a=SchubertCycle(GR25, 2, {(2,): 1, (1, 1): 1}))  # the word sigma_2 cancels
@example(a=sigma(GR37, 1, 1, 1))  # column bound 1 below row bound 6: the transposed box
@example(a=SchubertCycle(GR37, 3, {(1, 1, 1): 2, (2, 1): -1}))  # column bound 3 below row bound 8
def test_a_power_is_its_repeated_product(a):
    # a ** e against e - 1 calls of multiply, and the unit for e = 0
    product = unit(a.context)
    for e in range(a.context.dim + 2):
        power = a ** e
        assert power == product and power.codim == product.codim == a.codim * e
        assert all(power.terms.values())
        assert power == SchubertCycle(power.context, power.codim, power.terms)
        product = a if e == 0 else schubert.multiply(product, a)


def test_power_past_the_top_degree_or_of_codim_0_does_not_loop(monkeypatch):
    calls, reads = [], {"words": 0, "strips": 0}
    multiply, words, strips = schubert.multiply, schubert._giambelli_monomials, schubert._row_strips
    monkeypatch.setattr(schubert, "multiply", lambda a, b: calls.append(1) or multiply(a, b))
    monkeypatch.setattr(schubert, "_giambelli_monomials",
                        lambda lam: reads.__setitem__("words", reads["words"] + 1) or words(lam))
    monkeypatch.setattr(schubert, "_row_strips",
                        lambda *key: reads.__setitem__("strips", reads["strips"] + 1) or strips(*key))
    power = sigma(GR25, 1) ** 10**5
    assert calls == [] and reads == {"words": 0, "strips": 0}
    assert power.is_zero() and power.codim == 10**5
    assert power != zero(GR25, GR25.dim + 1)  # zero cycles differ by codimension
    # up to the top degree the power makes no product: it expands sigma_1 once
    # and carries one table through its e - 1 Pieri passes, one strip read per
    # term, (1), (2) + (1,1), (3) + (2,1), (3,1) + (2,2) and (3,2)
    assert (sigma(GR25, 1) ** GR25.dim).integral() == 5
    assert calls == [] and reads == {"words": 1, "strips": 1 + 2 + 2 + 2 + 1}
    # a codimension-0 cycle is a multiple of the unit class: one integer power
    reads.update(words=0, strips=0)
    assert unit(GR25) ** 10**9 == unit(GR25)
    assert (2 * unit(GR25)) ** 10 == 1024 * unit(GR25)
    assert zero(GR25) ** 0 == unit(GR25) and zero(GR25) ** 10**9 == zero(GR25)
    assert calls == [] and reads == {"words": 0, "strips": 0}
