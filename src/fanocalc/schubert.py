"""Exact Schubert calculus on the Grassmannian Gr(k, n).

Cycles are integer combinations of Schubert classes sigma_lambda, indexed by
partitions lying in the k x (n-k) box.  Products are computed by expanding
one factor through the Giambelli determinant into special classes sigma_p
and applying the Pieri rule repeatedly, so every structure constant is an
exact (arbitrary-precision) integer.  The ring is commutative, so the factor
with fewer Giambelli words is the one expanded.  All values are immutable and
all operations are pure functions.

The public ``SchubertCycle(...)`` constructor validates every key, and
``sigma`` normalizes its one partition and checks it against the box.  The
kernel works on plain term tables ``{partition: coefficient}`` and wraps
each result in a cycle once, through ``SchubertCycle._trusted``, which
relies on an invariant instead: every key it is given is already a box
partition, without trailing zeros, of weight ``codim``.  One function,
``_pieri_terms``, applies the Pieri rule to a table and drops the
coefficients that cancel; ``SchubertCycle.pieri`` and ``multiply`` both
call it.  The special classes commute, so a Giambelli word is a sorted
multiset of letters, and equal words of one partition are merged into one
word whose weight is the sum of their signs.  ``multiply`` sums the
expanded factor into one table of words, each weighted by coefficient times
weight over all of its terms, and carries the other factor's terms through
each word's Pieri steps once.  The Pieri rule reads its horizontal strips
from a cached table, ``_row_strips``, keyed by the partition, the strip
size and the box, so no strip is enumerated twice.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

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


def grass_euler(k: int, n: int) -> int:
    """Euler number of Gr(k, n): the number C(n, k) of Schubert cells."""
    _check_kn(k, n)
    return math.comb(n, k)


def normalize_partition(parts) -> tuple[int, ...]:
    """Validate a weakly decreasing sequence of non-negative integers.

    Trailing zeros are stripped; the weight (sum of parts) is the
    codimension of the class the partition names.
    """
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in partition {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def dual_partition(ctx: "Grassmannian", parts) -> tuple[int, ...]:
    """Complement of a box partition: the Poincare-dual basis label."""
    parts = normalize_partition(parts)
    if not ctx.contains(parts):
        raise ValueError(f"{parts} does not fit in the box of {ctx}")
    padded = parts + (0,) * (ctx.k - len(parts))
    return normalize_partition(ctx.width - p for p in reversed(padded))


class Grassmannian(FrozenRecord):
    """Ambient context: the space of k-planes in an n-space.  Immutable, compared by (k, n)."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        _check_kn(k, n)
        self._store(k, n)

    # written out, not inherited: the only record compared on hot paths (context checks, cache keys)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.n) == (other.k, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.n))

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)

    @property
    def width(self) -> int:
        return self.n - self.k

    @property
    def point(self) -> tuple[int, ...]:
        """The full-box partition, i.e. the class of a point."""
        return (self.width,) * self.k

    def contains(self, parts: tuple[int, ...]) -> bool:
        return len(parts) <= self.k and (not parts or parts[0] <= self.width)

    def __repr__(self):
        return f"Gr({self.k},{self.n})"


class SchubertCycle:
    """A homogeneous integer combination of Schubert classes.

    ``terms`` maps box partitions to non-zero integer coefficients; every key
    has weight ``codim``.  The zero cycle keeps its declared codimension, so
    products that land above the dimension of the ambient Grassmannian stay
    well-typed.
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

    @classmethod
    def _trusted(cls, context: Grassmannian, codim: int, terms: dict) -> "SchubertCycle":
        """A cycle from keys that are already box partitions of weight ``codim``.

        Only zero coefficients are dropped; nothing is re-validated.
        """
        cycle = object.__new__(cls)
        cycle.context = context
        cycle.codim = codim
        cycle._terms = {p: c for p, c in terms.items() if c}
        return cycle

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

    def __hash__(self):
        return hash((self.context, self.codim, tuple(sorted(self._terms.items()))))

    def __add__(self, other):
        if not isinstance(other, SchubertCycle):
            return NotImplemented
        self._require_same_context(other)
        if self._terms and other._terms and self.codim != other.codim:
            raise ValueError("cannot add cycles of different codimension")
        codim = self.codim if self._terms or not other._terms else other.codim
        merged = dict(self._terms)
        for p, c in other._terms.items():
            merged[p] = merged.get(p, 0) + c
        return SchubertCycle._trusted(self.context, codim, merged)

    def __neg__(self):
        return SchubertCycle._trusted(
            self.context, self.codim, {p: -c for p, c in self._terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return SchubertCycle._trusted(
                self.context, self.codim, {p: c * other for p, c in self._terms.items()}
            )
        if isinstance(other, SchubertCycle):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("cycle powers need a non-negative integer exponent")
        if self.codim == 0:  # a multiple c of the unit class: its power is c**exponent times it
            return SchubertCycle._trusted(self.context, 0, {(): self._terms.get((), 0) ** exponent})
        if self.codim * exponent > self.context.dim:
            return zero(self.context, self.codim * exponent)  # past the top degree
        out = unit(self.context)
        for _ in range(exponent):
            out = out * self
        return out

    def pieri(self, p: int) -> "SchubertCycle":
        """Multiply by the special class sigma_p.

        Out-of-box partitions are dropped, which is exactly the quotient-ring
        product; ``p = 0`` is the identity.
        """
        if p < 0:
            raise ValueError("Pieri step needs p >= 0")
        if p == 0:
            return self
        ctx = self.context
        terms = _pieri_terms(self._terms, p, ctx.k, ctx.width)
        return SchubertCycle._trusted(ctx, self.codim + p, terms)

    def integral(self) -> int:
        """Coefficient of the point class when codim equals dim, else 0."""
        if self.codim != self.context.dim:
            return 0
        return self._terms.get(self.context.point, 0)

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


def sigma(ctx: Grassmannian, *parts) -> SchubertCycle:
    """The Schubert class sigma_lambda; identically zero outside the box."""
    lam = normalize_partition(parts)
    return SchubertCycle._trusted(ctx, sum(lam), {lam: 1} if ctx.contains(lam) else {})


def unit(ctx: Grassmannian) -> SchubertCycle:
    return sigma(ctx)


def zero(ctx: Grassmannian, codim: int = 0) -> SchubertCycle:
    return SchubertCycle(ctx, codim, {})


@lru_cache(maxsize=None)
def _row_strips(mu: tuple[int, ...], p: int, k: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Partitions lam >= mu with lam/mu a horizontal p-strip inside the box.

    ``mu`` is a box partition without trailing zeros, and so is every lam
    returned.  The table has at most one entry per box partition and strip
    size that the Giambelli words of the box can ask for.
    """
    padded = mu + (0,) * (k - len(mu))
    out = []

    def rec(i, rem, prefix):
        if i == k:
            if rem == 0:
                # weakly decreasing, so the non-zero parts are a prefix
                out.append(tuple(x for x in prefix if x))
            return
        lo = padded[i]
        hi = min(width if i == 0 else padded[i - 1], lo + rem)
        for lam_i in range(lo, hi + 1):
            rec(i + 1, rem - (lam_i - lo), prefix + [lam_i])

    rec(0, p, [])
    return tuple(out)


def _pieri_terms(terms: dict, p: int, k: int, width: int) -> dict:
    """The Pieri rule on a term table: ``terms`` times sigma_p in Gr(k, k + width).

    Coefficients that cancel are dropped, so the result keeps the invariant
    of ``SchubertCycle._trusted``.
    """
    out: dict[tuple[int, ...], int] = {}
    for mu, coeff in terms.items():
        for lam in _row_strips(mu, p, k, width):
            out[lam] = out.get(lam, 0) + coeff
    return {lam: c for lam, c in out.items() if c}


@lru_cache(maxsize=None)
def _giambelli_monomials(lam: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Expansion of det(sigma_{lam_i + j - i}) into (weight, word) pairs of special classes.

    Entries sigma_m with m < 0 kill the permutation term; m = 0 is the unit
    and is skipped.  The special classes commute, so each word's letters are
    sorted and equal words are merged: a word's weight is the sum of the
    signs of its permutation terms, and a word whose signs cancel is dropped.
    Box truncation is left to the Pieri step, which never produces
    out-of-box rows.
    """
    r = len(lam)
    words: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(r)):
        sign = 1
        for i in range(r):
            for j in range(i + 1, r):
                if perm[i] > perm[j]:
                    sign = -sign
        entries = []
        dead = False
        for i in range(r):
            m = lam[i] + perm[i] - i
            if m < 0:
                dead = True
                break
            if m > 0:
                entries.append(m)
        if not dead:
            # largest letter first: tensor_chern on Gr(4, 8) then reads the
            # strip table 5,048 times, against 5,985 smallest first
            word = tuple(sorted(entries, reverse=True))
            words[word] = words.get(word, 0) + sign
    return tuple((sign, word) for word, sign in words.items() if sign)


def _word_count(cycle: SchubertCycle) -> int:
    return sum(map(len, map(_giambelli_monomials, cycle._terms)))


def multiply(a: SchubertCycle, b: SchubertCycle) -> SchubertCycle:
    """Chow-ring product, via Giambelli expansion of one factor and iterated Pieri.

    The factor whose terms have fewer Giambelli words in total is expanded
    into one table of words, each weighted by the sum over its terms of
    coefficient times the word's weight there; the other factor's terms are
    carried through each word's Pieri steps once.
    """
    a._require_same_context(b)
    ctx = a.context
    codim = a.codim + b.codim
    if codim > ctx.dim or not a._terms or not b._terms:
        return SchubertCycle._trusted(ctx, codim, {})
    if _word_count(b) < _word_count(a):
        a, b = b, a
    weights: dict[tuple[int, ...], int] = {}
    for lam, ca in a._terms.items():
        for weight, word in _giambelli_monomials(lam):
            weights[word] = weights.get(word, 0) + ca * weight
    k, width = ctx.k, ctx.width
    total: dict[tuple[int, ...], int] = {}
    for word, weight in weights.items():
        if not weight:
            continue
        cur = b._terms
        for m in word:
            cur = _pieri_terms(cur, m, k, width)
            if not cur:
                break
        for mu, c in cur.items():
            total[mu] = total.get(mu, 0) + weight * c
    return SchubertCycle._trusted(ctx, codim, total)
