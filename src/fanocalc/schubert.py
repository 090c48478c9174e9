"""Exact Schubert calculus on the Grassmannian Gr(k, n).

Cycles are integer combinations of Schubert classes sigma_lambda, indexed by
partitions lying in the k x (n-k) box.  Products are computed by expanding
one factor through the Giambelli determinant into special classes sigma_p
and applying the Pieri rule repeatedly, so every structure constant is an
exact (arbitrary-precision) integer.  The ring is commutative, and
transposing partitions, sigma_lambda -> sigma_lambda', is a ring
isomorphism onto the cohomology of Gr(n-k, n) (Fulton, *Young Tableaux*,
9.4).  So a product expands whichever factor has the smallest bound on its
Giambelli words, read by rows in the k x (n-k) box or by columns in the
transposed one, and the bound comes from the shapes alone.  All values are
immutable and all operations are pure functions.

The public ``SchubertCycle(...)`` constructor validates every key, and
``sigma`` normalizes its one partition and checks it against the box.  The
kernel works on plain term tables ``{partition: coefficient}`` and wraps
each result in a cycle once, through the module function ``_trusted``,
which relies on an invariant instead: every key it is given is already a
box partition, without trailing zeros, of weight ``codim``; it drops the
coefficients that cancel and otherwise keeps the table it is handed.
Giambelli determinants are expanded by Laplace down the rows, one minor
per set of used columns.  The special classes commute, so a Giambelli word
is a sorted multiset of letters, and equal words of one partition are
merged into one word whose weight is the sum of their signs.  Every
product and power runs one routine, ``_carry``, the one place the Pieri
rule is applied: it transposes both term tables when told to expand by
columns, sums the expanded factor into one table of words, each weighted
by coefficient times weight over all of its terms, carries the other
table through each word once per pass and sums the results, and
transposes the result back.  A table of one word of weight 1, as
sigma_p's is, hands back that word's table with no weighted sum.
``multiply`` calls it for one pass.  A power a ** e with 2 <= e and
codim * e <= dim makes no product: it calls it for e - 1 passes of its
base over one running table, by rows or by columns as the base's own
shape bound says, so sigma_1^6 on Gr(2, 5) reads the Giambelli table
once.  ``SchubertCycle.pieri`` is the product with sigma_p.  The Pieri
rule reads its horizontal strips from a bounded table, ``_row_strips``,
keyed by the partition, the strip size and the box, so no strip the table
holds is enumerated twice; each of the kernel's three tables holds all
that a whole c(T Gr(6, 12)) fills.

Two kinds of product are read off before any word is expanded, by the
duality theorem (Fulton, *Young Tableaux*, 9.4).  In the top degree
sigma_lam * sigma_mu is the point class when mu is the dual partition
lam^vee and 0 otherwise, so a product whose codimensions add up to the
dimension is sum_lam a_lam * b_(lam^vee) times the point class, for
cycles with any number of terms.  Below it, sigma_lam * sigma_mu = 0
unless lam_i + mu_(k+1-i) <= n-k for every i, that is unless lam fits in
mu^vee, so a product of two single classes that fails this test is the
zero cycle.  Every other product below the top degree, so every nonzero
one, still runs the Pieri loop, and so does the last pass of a power that
reaches the top degree.  The dual partitions and the shape bounds are
read from one bounded per-partition table, ``_shape``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import le

from .record import FrozenRecord


class ContextMismatchError(ValueError):
    """Two cycles from different Grassmannians were combined."""


def _check_kn(k: int, n: int) -> None:
    if k < 1 or n <= k:
        raise ValueError(f"need n > k >= 1, got k={k}, n={n}")


def grass_dim(k: int, n: int) -> int:
    """Dimension k(n-k) of Gr(k, n)."""
    _check_kn(k, n)
    return k * (n - k)


def normalize_partition(parts) -> tuple[int, ...]:
    """Validate a weakly decreasing sequence of non-negative integers.

    Trailing zeros are stripped; the weight (sum of parts) is the
    codimension of the class the partition names.
    """
    parts = tuple(map(int, parts))
    if not parts:
        return parts
    if min(parts) < 0:
        raise ValueError(f"negative part in partition {parts}")
    if parts != tuple(sorted(parts, reverse=True)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return parts[:parts.index(0)] if parts[-1] == 0 else parts  # the zeros are the tail


class Grassmannian(FrozenRecord):
    """Ambient context: the space of k-planes in an n-space.  Immutable, compared by (k, n)."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        _check_kn(k, n)
        self._store(k, n)

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)

    @property
    def width(self) -> int:
        return self.n - self.k

    def contains(self, parts: tuple[int, ...]) -> bool:
        return len(parts) <= self.k and (not parts or parts[0] <= self.width)

    def __repr__(self):
        return f"Gr({self.k},{self.n})"


class SchubertCycle:
    """A homogeneous integer combination of Schubert classes.

    ``terms`` maps box partitions to non-zero integer coefficients; every key
    has weight ``codim``.  The zero cycle keeps its declared codimension, so
    products that land above the dimension of the ambient Grassmannian stay
    well-typed, and it adds only to cycles of that codimension.
    """

    __slots__ = ("context", "codim", "_terms")

    def __init__(self, context: Grassmannian, codim: int, terms: dict | None = None):
        if codim < 0:
            raise ValueError("codimension must be non-negative")
        clean: dict[tuple[int, ...], int] = {}
        for parts, coeff in (terms or {}).items():
            parts = normalize_partition(parts)
            if not context.contains(parts):
                raise ValueError(f"{parts} violates the box of {context}")
            if sum(parts) != codim:
                raise ValueError(
                    f"mixed codimension: {parts} has weight {sum(parts)}, expected {codim}"
                )
            if coeff:
                clean[parts] = clean.get(parts, 0) + int(coeff)
        self.context = context
        self.codim = codim
        self._terms = {p: c for p, c in clean.items() if c}

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def coefficient(self, parts) -> int:
        return self._terms.get(normalize_partition(parts), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def _require_same_context(self, other: "SchubertCycle"):
        if self.context != other.context:
            raise ContextMismatchError(
                f"cycles live in {self.context} and {other.context}"
            )

    def __eq__(self, other):
        if not isinstance(other, SchubertCycle):
            return NotImplemented
        if self.context != other.context or self._terms != other._terms:
            return False
        # two zero cycles of different codimension are still distinct
        return bool(self._terms) or self.codim == other.codim

    def __add__(self, other):
        if not isinstance(other, SchubertCycle):
            return NotImplemented
        self._require_same_context(other)
        if self.codim != other.codim:
            raise ValueError("cannot add cycles of different codimension")
        merged = dict(self._terms)
        for p, c in other._terms.items():
            merged[p] = merged.get(p, 0) + c
        return _trusted(self.context, self.codim, merged)

    def __neg__(self):
        return _trusted(self.context, self.codim, {p: -c for p, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SchubertCycle):
            return multiply(self, other)
        if isinstance(other, int):
            return _trusted(self.context, self.codim, {p: c * other for p, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("cycle powers need a non-negative integer exponent")
        ctx = self.context
        if self.codim == 0:  # a multiple c of the unit class: its power is c**exponent times it
            return _trusted(ctx, 0, {(): self._terms.get((), 0) ** exponent})
        codim = self.codim * exponent
        k = ctx.k
        width = ctx.n - k
        if codim > k * width:
            return zero(ctx, codim)  # past the top degree
        if exponent < 2:
            return self if exponent else unit(ctx)
        # e - 1 Pieri passes of the base's one word table over one running table;
        # e - 1 multiply calls made the warm paper-suite pass 5.8 % slower, and
        # square-and-multiply 3.5 % (medians of 10 alternating processes a
        # side, Python 3.11.7, 2 vCPUs)
        terms = self._terms
        rows, cols = _shape_bounds(terms, k, width)
        return _trusted(ctx, codim, _carry(terms, terms, k, width, cols < rows, exponent - 1))

    def pieri(self, p: int) -> "SchubertCycle":
        """Multiply by the special class sigma_p: the product with ``sigma(context, p)``.

        sigma_p is zero past the box width, so such a product is the zero
        cycle; ``p = 0`` multiplies by the unit.
        """
        if p < 0:
            raise ValueError("Pieri step needs p >= 0")
        return multiply(self, sigma(self.context, p))

    def integral(self) -> int:
        """Coefficient of the point class when codim equals dim, else 0."""
        k = self.context.k
        width = self.context.n - k
        if self.codim != k * width:
            return 0
        return self._terms.get((width,) * k, 0)

    def __repr__(self):
        if not self._terms:
            return "0"
        chunks = []
        for parts, coeff in sorted(self._terms.items()):
            name = "sigma[" + ",".join(str(p) for p in parts) + "]" if parts else "1"
            if name == "1":
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = name
            else:
                body = f"{abs(coeff)}*{name}"
            chunks.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _trusted(context: Grassmannian, codim: int, terms: dict) -> SchubertCycle:
    """A cycle from keys that are already box partitions of weight ``codim``.

    Only zero coefficients are dropped; nothing is re-validated.  A table
    with no zero is kept as it is, not copied, so every caller hands over
    a table of its own and does not change it afterwards.
    """
    cycle = object.__new__(SchubertCycle)
    cycle.context = context
    cycle.codim = codim
    cycle._terms = {p: c for p, c in terms.items() if c} if 0 in terms.values() else terms
    return cycle


def sigma(ctx: Grassmannian, *parts) -> SchubertCycle:
    """The Schubert class sigma_lambda; identically zero outside the box."""
    lam = normalize_partition(parts)
    return _trusted(ctx, sum(lam), {lam: 1} if ctx.contains(lam) else {})


def unit(ctx: Grassmannian) -> SchubertCycle:
    return sigma(ctx)


def zero(ctx: Grassmannian, codim: int = 0) -> SchubertCycle:
    return SchubertCycle(ctx, codim, {})


@lru_cache(maxsize=16384)
def _row_strips(mu: tuple[int, ...], p: int, k: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Partitions lam >= mu with lam/mu a horizontal p-strip inside the k x width box.

    lam/mu is a horizontal strip exactly when mu_i <= lam_i <= mu_(i-1) in
    every row, with mu_0 = width, so each row takes its own share of the p
    boxes, up to the gap above it.  Only rows with a gap are visited, and no
    share is so small that the rows below cannot take the rest, so every
    branch ends in a strip.  ``mu`` is a box partition without trailing
    zeros, and so is every lam returned.  The table has at most one entry
    per box partition and strip size that the Giambelli words of the box,
    or of its transpose, can ask for.
    """
    padded = mu + (0,) * (k - len(mu))
    gaps = [(i, (padded[i - 1] if i else width) - part) for i, part in enumerate(padded)]
    gaps = [(i, gap) for i, gap in gaps if gap]
    lam = list(padded)
    out = []

    def rec(j, rem, room):
        if not rem:
            # weakly decreasing, so the non-zero parts are a prefix
            out.append(tuple(x for x in lam if x))
            return
        i, gap = gaps[j]
        room -= gap  # what the rows below row i can still take
        for add in range(max(0, rem - room), min(gap, rem) + 1):
            lam[i] = padded[i] + add
            rec(j + 1, rem - add, room)
        lam[i] = padded[i]

    room = sum(gap for _, gap in gaps)
    if p <= room:
        rec(0, p, room)
    return tuple(out)


@lru_cache(maxsize=4096)
def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The transposed partition lam': its parts are the column lengths of lam."""
    return tuple(sum(part > i for part in lam) for i in range(lam[0] if lam else 0))


@lru_cache(maxsize=1024)
def _giambelli_monomials(lam: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Expansion of det(sigma_{lam_i + j - i}) into (weight, word) pairs of special classes.

    The determinant is expanded by Laplace down the rows: the minor left
    after the first rows depends only on the set of columns they used, so
    it is computed once per set, 2^r minors against r! permutation terms.
    Entries sigma_m with m < 0 are zero; m = 0 is the unit and adds no
    letter.  The special classes commute, so each word's letters are sorted
    and equal words are merged: a word's weight is the sum of the signs of
    its permutation terms, and a word whose signs cancel is dropped.  Box
    truncation is left to the Pieri step, which never produces out-of-box
    rows.
    """
    r = len(lam)
    minors: dict[int, dict[tuple[int, ...], int]] = {(1 << r) - 1: {(): 1}}

    def minor(used: int) -> dict[tuple[int, ...], int]:
        """The minor on the rows after the first popcount(used), and the columns not in used."""
        if used in minors:
            return minors[used]
        i = used.bit_count()
        out: dict[tuple[int, ...], int] = {}
        sign = 1
        for j in range(r):
            if used >> j & 1:
                continue
            m = lam[i] + j - i
            if m >= 0:
                for word, weight in minor(used | 1 << j).items():
                    if m:
                        # largest letter first: tensor_chern on Gr(4, 8) then reads the
                        # strip table 4,904 times, against 6,023 smallest first
                        word = tuple(sorted(word + (m,), reverse=True))
                    out[word] = out.get(word, 0) + sign * weight
            sign = -sign
        minors[used] = out = {word: weight for word, weight in out.items() if weight}
        return out

    return tuple((weight, word) for word, weight in minor(0).items())


@lru_cache(maxsize=4096)
def _shape(lam: tuple[int, ...], k: int, width: int) -> tuple[tuple[int, ...], int, int]:
    """(lam^vee, r!, c!) for a partition lam of r rows and c columns in the k x width box.

    lam^vee, the complement of lam in the box turned by a half turn, is the
    Poincare-dual basis label.  An r-row partition has at most r! Giambelli
    words, so r! and c! bound its words by rows and by columns, from the
    shape alone.  The table holds one entry per box partition and box in
    use: 4,096 hold every label of Gr(6, 12) (924) with room to spare, and
    a label pushed out is only computed again.
    """
    dual = tuple(width - p for p in reversed(lam + (0,) * (k - len(lam))) if p != width)
    return dual, math.factorial(len(lam)), math.factorial(lam[0] if lam else 0)


def _pairing(a: SchubertCycle, b: SchubertCycle) -> int:
    """The integral of a * b over the Grassmannian, by Poincare duality: sum of a_lam * b_(lam^vee).

    sigma_lam * sigma_mu integrates to 1 when mu is the dual partition of
    lam and to 0 otherwise, so no product is computed; cycles whose
    codimensions do not add up to the dimension pair to 0.
    """
    ctx = a.context
    k = ctx.k
    width = ctx.n - k
    ta, tb = a._terms, b._terms
    if len(tb) < len(ta):
        ta, tb = tb, ta
    total = 0
    for lam, c in ta.items():
        total += c * tb.get(_shape(lam, k, width)[0], 0)
    return total


def _shape_bounds(terms: dict, k: int, width: int) -> tuple[int, int]:
    """Sums over the terms of r!, for r the rows and for r the columns of each partition."""
    rows = cols = 0
    for lam in terms:
        _, r, c = _shape(lam, k, width)
        rows += r
        cols += c
    return rows, cols


def _carry(expanded: dict, table: dict, k: int, width: int, side: bool,
           passes: int) -> dict[tuple[int, ...], int]:
    """``table`` times ``expanded`` ``passes`` times, by the Pieri rule in the k x width box.

    With ``side`` both term tables are transposed first, into the width x k
    box, and the result is transposed back.  ``expanded``'s Giambelli words
    are merged into one table once: each word is weighted by the sum over
    the terms of coefficient times the word's weight in that term's
    expansion.  In each pass, each word of non-zero weight carries the
    running table through its Pieri steps once, and the weighted results
    are summed into the next running table.  A single word of weight 1 with
    at least one letter, the one word of sigma_p, hands back its own table;
    the empty word, the unit's, would hand back ``table`` itself, which the
    caller does not own.  Cancelled entries may stay in the table returned;
    the next step skips them, and ``_trusted`` drops them.
    """
    if side:
        k, width = width, k
        expanded = {_conjugate(lam): c for lam, c in expanded.items()}
        table = {_conjugate(mu): c for mu, c in table.items()}
    weights: dict[tuple[int, ...], int] = {}
    for lam, ca in expanded.items():
        for weight, word in _giambelli_monomials(lam):
            weights[word] = weights.get(word, 0) + ca * weight
    for _ in range(passes):
        total: dict[tuple[int, ...], int] = {}
        for word, weight in weights.items():
            if not weight:
                continue
            cur = table
            for m in word:
                # the Pieri rule, the one place it is applied: cur times sigma_m
                step: dict[tuple[int, ...], int] = {}
                for mu, c in cur.items():
                    if c:
                        for lam in _row_strips(mu, m, k, width):
                            step[lam] = step.get(lam, 0) + c
                cur = step
            if weight == 1 and word and len(weights) == 1:
                total = cur
            else:
                for mu, c in cur.items():
                    total[mu] = total.get(mu, 0) + weight * c
        table = total
    if side:
        table = {_conjugate(mu): c for mu, c in table.items()}
    return table


def multiply(a: SchubertCycle, b: SchubertCycle) -> SchubertCycle:
    """Chow-ring product, via Giambelli expansion of one factor and iterated Pieri.

    A product in the top degree is the Poincare pairing times the point
    class, and a product of single classes sigma_lam * sigma_mu is zero
    when lam does not fit in mu^vee; neither expands a word.  Every other
    product runs the Pieri loop.  sigma_lam -> sigma_lam' is a ring
    isomorphism from H*(Gr(k, n)) onto H*(Gr(n-k, n)), so a factor can be
    expanded by its rows in the k x (n-k) box or by its columns in the
    transposed box.  The factor and side with the smallest shape bound are
    expanded into one table of words, each weighted by the sum over its
    terms of coefficient times the word's weight there.  The other factor's
    terms are carried through each word's Pieri steps once, and the result
    is transposed back if the columns were expanded.
    """
    ctx = a.context
    if b.context is not ctx:
        a._require_same_context(b)
    k = ctx.k
    width = ctx.n - k
    dim = k * width
    codim = a.codim + b.codim
    expanded, other = a._terms, b._terms
    if codim > dim or not expanded or not other:
        return _trusted(ctx, codim, {})
    if codim == dim:
        return _trusted(ctx, codim, {(width,) * k: _pairing(a, b)})
    if len(expanded) == 1 == len(other):
        (lam,), (mu,) = expanded, other
        _, rows_a, cols_a = _shape(lam, k, width)
        dual, rows_b, cols_b = _shape(mu, k, width)
        if len(lam) > len(dual) or not all(map(le, lam, dual)):
            return _trusted(ctx, codim, {})  # lam does not fit in mu^vee
    else:
        rows_a, cols_a = _shape_bounds(expanded, k, width)
        rows_b, cols_b = _shape_bounds(other, k, width)
    side = min(cols_a, cols_b) < min(rows_a, rows_b)
    if (cols_b < cols_a) if side else (rows_b < rows_a):
        expanded, other = other, expanded
    return _trusted(ctx, codim, _carry(expanded, other, k, width, side, 1))
