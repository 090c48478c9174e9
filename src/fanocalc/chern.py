"""Chern-class calculus for Grassmannians and their smooth linear sections.

Total Chern classes are graded tuples of Schubert cycles.  The class of a
tensor product comes from the multiplicativity of the Chern character:
Newton's identities turn each factor's Chern classes into power sums of its
roots, the power sums of the product follow by the binomial rule, and
Newton's identities turn them back.  Every division on the way back is exact,
so every coefficient stays an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .schubert import (
    ContextMismatchError,
    Grassmannian,
    SchubertCycle,
    sigma,
    unit,
    zero,
)


class TotalChernClass:
    """Graded total class c_0 + c_1 + ... + c_limit with c_0 = 1 implied.

    Components above ``limit`` are zero.  Instances are immutable.
    """

    __slots__ = ("context", "components")

    def __init__(self, context: Grassmannian, components):
        comps = tuple(components)
        if not comps or comps[0] != unit(context):
            raise ValueError("a total Chern class must start with 1")
        for i, c in enumerate(comps):
            if c.context != context:
                raise ContextMismatchError("component from a different context")
            if c.codim != i:
                raise ValueError(f"component {i} has codimension {c.codim}")
        self.context = context
        self.components = comps

    @property
    def limit(self) -> int:
        return len(self.components) - 1

    def component(self, i: int) -> SchubertCycle:
        if 0 <= i <= self.limit:
            return self.components[i]
        return zero(self.context, max(i, 0))

    def dual(self) -> "TotalChernClass":
        """Total class of the dual bundle: c_i |-> (-1)^i c_i."""
        comps = [c if i % 2 == 0 else -c for i, c in enumerate(self.components)]
        return TotalChernClass(self.context, comps)

    def __mul__(self, other):
        if not isinstance(other, TotalChernClass):
            return NotImplemented
        if self.context != other.context:
            raise ContextMismatchError("total classes from different contexts")
        limit = min(self.context.dim, self.limit + other.limit)
        comps = []
        for m in range(limit + 1):
            acc = zero(self.context, m)
            for j in range(m + 1):
                acc = acc + self.component(j) * other.component(m - j)
            comps.append(acc)
        return TotalChernClass(self.context, comps)

    def __eq__(self, other):
        if not isinstance(other, TotalChernClass):
            return NotImplemented
        if self.context != other.context:
            return False
        top = max(self.limit, other.limit)
        return all(self.component(i) == other.component(i) for i in range(top + 1))

    def __repr__(self):
        return "1 + " + " + ".join(f"({c})" for c in self.components[1:])


def unit_total(ctx: Grassmannian, limit: int = 0) -> TotalChernClass:
    return TotalChernClass(ctx, [unit(ctx)] + [zero(ctx, i) for i in range(1, limit + 1)])


@dataclass(frozen=True)
class BundleModel:
    """A vector bundle presented by its rank and total Chern class."""

    rank: int
    total: TotalChernClass

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("bundle rank must be positive")
        for i in range(self.rank + 1, self.total.limit + 1):
            if not self.total.component(i).is_zero():
                raise ValueError("Chern class above the rank must vanish")


def universal_bundles(ctx: Grassmannian) -> tuple[BundleModel, BundleModel]:
    """The dual tautological subbundle and the quotient bundle.

    The subbundle dual has c_i = sigma_{1^i} (i <= k), the quotient has
    c_r = sigma_r (r <= n-k); their duals satisfy the Whitney relation
    c(sub.dual) * c(quot) = 1.
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

    p_m = sum_{i<m} (-1)^(i-1) c_i p_(m-i) + (-1)^(m-1) m c_m.
    """
    c = bundle.total.component
    sums = [bundle.rank * unit(bundle.total.context)]
    for m in range(1, limit + 1):
        acc = (-1) ** (m - 1) * m * c(m)
        for i in range(1, m):
            acc = acc + (-1) ** (i - 1) * (c(i) * sums[m - i])
        sums.append(acc)
    return sums


def _divide_exactly(cycle: SchubertCycle, m: int) -> SchubertCycle:
    quotient = {}
    for parts, coeff in cycle.terms.items():
        q, r = divmod(coeff, m)
        if r:
            raise ValueError(f"coefficient {coeff} of {parts} is not divisible by {m}")
        quotient[parts] = q
    return SchubertCycle(cycle.context, cycle.codim, quotient)


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
    sums = [
        sum((math.comb(m, t) * (pa[t] * pb[m - t]) for t in range(m + 1)), zero(ctx, m))
        for m in range(limit + 1)
    ]
    comps = [unit(ctx)]
    for m in range(1, limit + 1):
        acc = zero(ctx, m)
        for i in range(1, m + 1):
            acc = acc + (-1) ** (i - 1) * (sums[i] * comps[m - i])
        comps.append(_divide_exactly(acc, m))
    return TotalChernClass(ctx, comps)


# ---------------------------------------------------------------------------
# linear sections

@dataclass(frozen=True)
class SectionModel:
    """A smooth intersection of ``codim`` hyperplane sections of Gr(k, n).

    ``chern`` holds the restriction-valued total class: components live in the
    ambient ring and stand for their restrictions to the section.
    """

    context: Grassmannian
    codim: int
    chern: TotalChernClass

    @property
    def dim(self) -> int:
        return self.context.dim - self.codim

    @property
    def index(self) -> int:
        """r with c_1 = r * sigma_1; sigma_1 spans the classes of codimension 1."""
        return self.chern.component(1).coefficient((1,))


def section_chern(ambient: TotalChernClass, codim: int) -> SectionModel:
    """Adjunction along ``codim`` hyperplanes: divide by 1 + sigma_1, codim times.

    One division turns c into c' with c'_m = c_m - sigma_1 c'_(m-1); only
    the degrees up to the dimension of the section are kept.
    """
    ctx = ambient.context
    if codim < 0 or codim >= ctx.dim:
        raise ValueError("section codimension must satisfy 0 <= codim < dim")
    s1 = sigma(ctx, 1)
    comps = [ambient.component(m) for m in range(ctx.dim - codim + 1)]
    for _ in range(codim):
        for m in range(1, len(comps)):
            comps[m] = comps[m] - s1 * comps[m - 1]
    return SectionModel(ctx, codim, TotalChernClass(ctx, comps))


def section_degree(model: SectionModel, cycle: SchubertCycle) -> int:
    """Degree on the section of an ambient cycle: integrate against sigma_1^codim."""
    if cycle.context != model.context:
        raise ContextMismatchError("cycle from a different context")
    return (cycle * sigma(model.context, 1) ** model.codim).integral()
