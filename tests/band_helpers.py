"""The band average B = r*g(t/r), its second partials and rectangle volumes, for tests.

The library evaluates B only inside the copula formulas.  The derivative
adjudication tests need B itself, to difference it numerically, and two
forms of B_tt: the chain-rule expansion that `copula_density` uses, and the
variant with a single rho*r_t cross term from which the classical
sufficient conditions were derived (the two differ by g''*rho*r_t/r).
"""

import numpy as np

from fhsmooth.copulas import copula_values
from fhsmooth.kernel import kernel_arrays


def rectangle_volume(spec, u1, u2, v1, v2):
    """C-volume of [u1, u2] x [v1, v2] for u1 <= u2, v1 <= v2; nonnegative for every copula."""
    c = copula_values(spec, np.array([u2, u2, u1, u1]), np.array([v2, v1, v2, v1]))
    return float(c[0] - c[1] - c[2] + c[3])


def band_average(model, w, z, o):
    """B = r*g(t/r), the disc average of |t| in the frame of Orientation o."""
    t, _ = o.swap(w, z)
    r = model.radius(w, z)
    return r * kernel_arrays(t / r)[0]


def band_average_second_partials(model, w, z, o, single_cross=False):
    """(B_tt, B_nn); B_tt by the chain rule, or with a single cross term."""
    r, r_w, r_z, r_ww, r_zz = model.jet(w, z)
    t, _ = o.swap(w, z)
    r_t, r_n = o.swap(r_w, r_z)
    r_tt, r_nn = o.swap(r_ww, r_zz)
    rho = t / r
    _, _, g2, h = kernel_arrays(rho)
    if single_cross:
        b_tt = g2 * ((rho * r_t) ** 2 + 1.0 - rho * r_t) / r + h * r_tt
    else:
        b_tt = g2 * (1.0 - rho * r_t) ** 2 / r + h * r_tt
    b_nn = g2 * (rho * r_n) ** 2 / r + h * r_nn
    return b_tt, b_nn
