"""The Whitney product of total Chern classes, multiplied out for the tests.

The package keeps no product of total classes: c(A + B) = c(A) c(B) is
only a check here, on component lists [c_0, c_1, ...] whose entry i has
codimension i.  Every product goes through ``schubert.multiply``.
"""

from fanocalc.schubert import multiply, zero


def whitney_product(*factors):
    """The component list of the product of the factors, up to the top degree of their Grassmannian."""
    product = list(factors[0])
    for factor in factors[1:]:
        ctx = factor[0].context
        top = min(ctx.dim, len(product) + len(factor) - 2)
        product = [
            sum(
                (multiply(product[j], factor[m - j])
                 for j in range(max(0, m - len(factor) + 1), min(m, len(product) - 1) + 1)),
                zero(ctx, m),
            )
            for m in range(top + 1)
        ]
    return product
