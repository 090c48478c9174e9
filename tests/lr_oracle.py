"""Littlewood-Richardson oracle.

Independent of the library under test: coefficients are counted directly as
skew semistandard tableaux whose reverse reading word is a lattice word.
Only suitable for the small partitions that fit in a Grassmannian box.
"""


def _pad(parts, rows):
    return tuple(parts) + (0,) * (rows - len(parts))


def lr_coefficient(lam, mu, nu) -> int:
    """Count LR tableaux of shape nu/lam and content mu.

    The cells are filled one at a time in reverse reading order: each row
    right to left, top row first.  A cell takes a value only where the rows
    stay weakly increasing, the columns strictly increasing, the content
    within mu and the word read so far a lattice word.  So every filling
    that reaches the last cell is an LR tableau, and none is missed.
    """
    rows = max(len(lam), len(nu), 1)
    lam = _pad(lam, rows)
    nu = _pad(nu, rows)
    if any(n < l for n, l in zip(nu, lam)):
        return 0
    cells = [(r, c) for r in range(rows) for c in range(nu[r] - 1, lam[r] - 1, -1)]
    if sum(mu) != len(cells):
        return 0
    grid = {}  # the filled cells; the cell above and the one to the right come earlier
    content = [0] * (len(mu) + 1)  # content[v]: how many v are placed, for v = 1..len(mu)

    def fill(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        count = 0
        for v in range(grid.get((r - 1, c), 0) + 1, grid.get((r, c + 1), len(mu)) + 1):
            if content[v] < mu[v - 1] and (v == 1 or content[v] < content[v - 1]):
                grid[(r, c)] = v
                content[v] += 1
                count += fill(i + 1)
                content[v] -= 1
        grid.pop((r, c), None)
        return count

    return fill(0)


def box_partitions(k, n):
    """All partitions inside the k x (n - k) box, longest-first tuples."""
    width = n - k
    result = []

    def extend(prefix, maximum):
        result.append(tuple(prefix))
        if len(prefix) == k:
            return
        for part in range(maximum, 0, -1):
            extend(prefix + [part], part)

    extend([], width)
    return [tuple(p for p in parts if p) for parts in result]


def box_complement(k, n, lam):
    """The cells of the k x (n - k) box outside lam, turned by a half turn, as a partition.

    sigma_lam * sigma_mu integrates to 1 on Gr(k, n) when mu is this
    complement, and to 0 for every other mu of the complementary degree.
    """
    width = n - k
    lam = _pad(lam, k)
    outside = [(r, c) for r in range(k) for c in range(width) if c >= lam[r]]
    rows = [0] * k
    for r, _ in outside:
        rows[k - 1 - r] += 1
    return tuple(row for row in rows if row)


def oracle_product(k, n, lam, mu):
    """sigma_lam * sigma_mu in Gr(k, n) as a dict partition -> coefficient."""
    total = sum(lam) + sum(mu)
    out = {}
    for nu in box_partitions(k, n):
        if sum(nu) != total:
            continue
        coeff = lr_coefficient(lam, mu, nu)
        if coeff:
            out[nu] = coeff
    return out
