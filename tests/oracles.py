"""Reference implementations that tests compare the library against.

``level_reference`` is the arithmetic of one level of the Schur-complement
family as it stood before the family's per-level work was split from its
once-per-family work: each level factored, certified and inverted on its
own, R read through ``qr(mode="r")``. The family must still give the same
bits for every member.
"""

import numpy as np

from ariset import linalg, riccati


def level_reference(ls, ys, tol):
    """Coordinates ``(ok, q, lcoord)`` of one level of stacked supports
    ``ls`` (N×n×k) with Gramians ``ys`` (N×k×k), decided by one
    certificate call of its own and ``eigvalsh`` on the unions it leaves
    undecided."""
    count, _, k = ls.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf and nan fail the certificate
        r_inv = np.linalg.inv(np.linalg.qr(ls, mode="r"))  # serves both sides of R⁻ᵀ Y R⁻¹
        g = np.swapaxes(r_inv, 1, 2) @ ys @ r_inv
        g = 0.5 * (g + np.swapaxes(g, 1, 2))
        try:
            z = np.linalg.inv(g)
        except np.linalg.LinAlgError:
            z, norms = None, np.full((3, count), np.nan)
        else:
            resid = g @ z
            resid.reshape(count, k * k)[:, :: k + 1] -= 1.0
            norms = np.sqrt([np.einsum("nij,nij->n", a, a) for a in (g, z, resid)])
        ok = riccati._certified_full_rank(k, *norms, tol.rank)
    undecided = ~ok
    if undecided.any():
        sv = np.abs(np.linalg.eigvalsh(g[undecided]))  # g is symmetric: its singular values
        ok[undecided] = linalg._full_rank(sv.min(axis=1), sv.max(axis=1), tol.rank)
    if not ok.all():
        ls, r_inv, g = ls[ok], r_inv[ok], g[ok]
        z = None if z is None else z[ok]
    if z is None:
        z = np.linalg.inv(g)
    return ok, ls @ r_inv, 0.5 * (z + np.swapaxes(z, 1, 2))
