"""Chern-class calculus for Grassmannians and their smooth sections by hypersurfaces.

Total Chern classes are graded tuples of Schubert cycles.  The class of a
tensor product comes from the multiplicativity of the Chern character:
Newton's identities turn each factor's Chern classes into power sums of its
roots, the power sums of the product follow by the binomial rule, and
Newton's identities turn them back.  Every division on the way back is exact,
so every coefficient stays an integer.

Each component is summed on one plain term table ``{partition:
coefficient}``: every signed or binomial-scaled product is added straight
into the table of its component, and the table is wrapped in a cycle once,
through ``SchubertCycle._trusted``.  A component above a factor's limit is
zero, so its products are skipped, not computed.  Every product is
``schubert.multiply``, the one kernel.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .record import FrozenRecord
from .schubert import (
    ContextMismatchError,
    Grassmannian,
    SchubertCycle,
    multiply,
    sigma,
    unit,
    zero,
)


def _add_product(table: dict, coeff: int, a: SchubertCycle, b: SchubertCycle) -> None:
    """Add coeff * a * b into the term table ``table``."""
    for parts, c in multiply(a, b)._terms.items():
        table[parts] = table.get(parts, 0) + coeff * c


class TotalChernClass(FrozenRecord):
    """Graded total class c_0 + c_1 + ... + c_limit with c_0 = 1 implied.

    Components above ``limit`` are zero, and ``component`` reads them so;
    no class has a negative index.  Two classes are equal when their
    contexts and component tuples are.  Immutable, with no hash.
    """

    __slots__ = ("context", "components")

    def __init__(self, context: Grassmannian, components):
        comps = tuple(components)
        if any(c.context != context for c in comps):
            raise ContextMismatchError("component from a different context")
        if not comps or comps[0] != unit(context):
            raise ValueError("a total Chern class must start with 1")
        for i, c in enumerate(comps):
            if c.codim != i:
                raise ValueError(f"component {i} has codimension {c.codim}")
        self._store(context, comps)

    __hash__ = None

    @property
    def limit(self) -> int:
        return len(self.components) - 1

    def component(self, i: int) -> SchubertCycle:
        if i < 0:
            raise ValueError(f"a Chern class index must be non-negative, got {i}")
        if i <= self.limit:
            return self.components[i]
        return zero(self.context, i)


class BundleModel(FrozenRecord):
    """A vector bundle presented by its rank and total Chern class.

    Immutable, and compared by value; like its total class, it has no hash.
    """

    __slots__ = ("rank", "total")

    def __init__(self, rank: int, total: TotalChernClass):
        if rank < 1:
            raise ValueError("bundle rank must be positive")
        for i in range(rank + 1, total.limit + 1):
            if not total.component(i).is_zero():
                raise ValueError("Chern class above the rank must vanish")
        self._store(rank, total)

    __hash__ = None


def universal_bundles(ctx: Grassmannian) -> tuple[BundleModel, BundleModel]:
    """The dual tautological subbundle and the quotient bundle.

    The dual S* of the tautological subbundle S has c_i = sigma_{1^i}
    (i <= k), the quotient Q has c_r = sigma_r (r <= n-k).  S itself has
    c_i(S) = (-1)^i c_i(S*), and the Whitney relation reads c(S) * c(Q) = 1.
    """
    sub = TotalChernClass(ctx, [sigma(ctx, *([1] * i)) for i in range(ctx.k + 1)])
    quot = TotalChernClass(ctx, [sigma(ctx, r) for r in range(ctx.width + 1)])
    return BundleModel(ctx.k, sub), BundleModel(ctx.width, quot)


@lru_cache(maxsize=None)
def tangent_bundle(ctx: Grassmannian) -> BundleModel:
    """Tangent bundle: (dual subbundle) tensor (quotient bundle)."""
    sub, quot = universal_bundles(ctx)
    return BundleModel(ctx.dim, tensor_chern(sub, quot))


# ---------------------------------------------------------------------------
# tensor products through power sums of the Chern roots

def _power_sums(bundle: BundleModel, limit: int) -> list[SchubertCycle]:
    """p_0 = rank, p_1, ..., p_limit of the Chern roots, by Newton's identities.

    p_m = sum_{i<m} (-1)^(i-1) c_i p_(m-i) + (-1)^(m-1) m c_m; c_i is zero
    above the class's limit, so those terms are skipped.
    """
    ctx = bundle.total.context
    c, top = bundle.total.components, bundle.total.limit
    sums = [SchubertCycle._trusted(ctx, 0, {(): bundle.rank})]
    for m in range(1, limit + 1):
        acc = {p: (-1) ** (m - 1) * m * v for p, v in c[m]._terms.items()} if m <= top else {}
        for i in range(1, min(m - 1, top) + 1):
            _add_product(acc, (-1) ** (i - 1), c[i], sums[m - i])
        sums.append(SchubertCycle._trusted(ctx, m, acc))
    return sums


def _divide_exactly(table: dict, m: int) -> dict:
    """The term table divided by m, which must divide every coefficient."""
    quotient = {}
    for parts, coeff in table.items():
        q, r = divmod(coeff, m)
        if r:
            raise ValueError(f"coefficient {coeff} of {parts} is not divisible by {m}")
        quotient[parts] = q
    return quotient


def tensor_chern(a: BundleModel, b: BundleModel) -> TotalChernClass:
    """Total Chern class of a tensor product of bundle models.

    The Chern character is multiplicative, so the power sums of the roots
    x_i + y_j are p_m(A (x) B) = sum_t C(m, t) p_t(A) p_(m-t)(B); Newton's
    identities m c_m = sum_{i<=m} (-1)^(i-1) c_(m-i) p_i turn them back into
    Chern classes, with every division by m exact.
    """
    if a.total.context != b.total.context:
        raise ContextMismatchError("bundle models from different contexts")
    ctx = a.total.context
    limit = min(ctx.dim, a.rank * b.rank)
    pa, pb = _power_sums(a, limit), _power_sums(b, limit)
    sums = []
    for m in range(limit + 1):
        acc = {}
        for t in range(m + 1):
            _add_product(acc, math.comb(m, t), pa[t], pb[m - t])
        sums.append(SchubertCycle._trusted(ctx, m, acc))
    comps = [unit(ctx)]
    for m in range(1, limit + 1):
        acc = {}
        for i in range(1, m + 1):
            _add_product(acc, (-1) ** (i - 1), sums[i], comps[m - i])
        comps.append(SchubertCycle._trusted(ctx, m, _divide_exactly(acc, m)))
    return TotalChernClass(ctx, comps)


# ---------------------------------------------------------------------------
# sections by hypersurfaces

def section_chern(ambient: TotalChernClass, degrees: tuple[int, ...]) -> TotalChernClass:
    """Adjunction along hypersurfaces of the given degrees: divide by 1 + d sigma_1 for each d.

    The section is a smooth intersection of hypersurfaces of these degrees
    in the Pluecker embedding: a hyperplane has degree 1, and P^N is
    Gr(1, N+1), so a complete intersection is a section too.  Its total
    class is restriction-valued: components live in the ambient ring and
    stand for their restrictions to the section.  One division turns c into
    c' with c'_m = c_m - d sigma_1 c'_(m-1); only the components up to the
    dimension of the section are kept.
    """
    ctx = ambient.context
    if len(degrees) >= ctx.dim:
        raise ValueError("section codimension must satisfy 0 <= codim < dim")
    if any(d < 1 for d in degrees):
        raise ValueError("hypersurface degrees must be positive")
    comps = [ambient.component(m) for m in range(ctx.dim - len(degrees) + 1)]
    s1 = sigma(ctx, 1)
    for d in degrees:
        for m in range(1, len(comps)):
            acc = dict(comps[m]._terms)
            _add_product(acc, -d, s1, comps[m - 1])
            comps[m] = SchubertCycle._trusted(ctx, m, acc)
    return TotalChernClass(ctx, comps)
