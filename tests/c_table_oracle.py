"""The closed-form p24y1 degeneracy-class sums, kept as a test oracle.

It is written apart from the eigenvector code in coinwalk.spectral and
coinwalk.localization, so the class coefficients and the quadrature kernel
are compared against formulas that share none of their arithmetic."""

import numpy as np


def c_table_p24y1(l_sp: int, l_s: int, k: int, theta: float, zn: float, zm: float):
    """Closed-form class sums for the p24y1 family, k in {1, 2}.

    Arguments are the chirality indices l(S'), l(S), the branch k and the
    momentum angles. Vectorizes over zn/zm arrays.
    """
    if k not in (1, 2):
        raise ValueError("the closed-form table covers k in {1, 2}")
    s, c = np.sin(theta), np.cos(theta)
    cx, cy = np.cos(zn), np.cos(zm)
    if l_sp == l_s:
        return 2.0 * np.ones_like(np.asarray(cx, dtype=float))
    pair = frozenset((l_sp, l_s))
    if k == 1:
        den = 2 + s * (cx + cy)
        if pair in (frozenset((1, 2)), frozenset((3, 4))):
            num = -2 * (cx + cy + 2 * s * cx * cy)
        elif pair == frozenset((1, 3)):
            num = 2 * (1 + c + (1 - c) * cx * cy + s * (cx + cy))
        elif pair in (frozenset((1, 4)), frozenset((2, 3))):
            num = -2 * (cx + cy + s + s * cx * cy)
        else:  # {2, 4}
            num = 2 * ((1 + c) * cx * cy + (1 - c) + s * (cx + cy))
    else:
        den = 2 - s * (cx + cy)
        if pair in (frozenset((1, 2)), frozenset((3, 4))):
            num = 2 * (cx + cy - 2 * s * cx * cy)
        elif pair == frozenset((1, 3)):
            num = 2 * (1 + c + (1 - c) * cx * cy - s * (cx + cy))
        elif pair in (frozenset((1, 4)), frozenset((2, 3))):
            num = 2 * (cx + cy - s - s * cx * cy)
        else:  # {2, 4}
            num = 2 * ((1 + c) * cx * cy + (1 - c) - s * (cx + cy))
    return num / den
