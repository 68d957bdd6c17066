"""Reference scans for the Gaussian cone layer.

:func:`scan_cone_data` solves the QP on every principal submatrix of size
>= i (about 2^d of them) and takes gamma_i, the argmin family and |I_i|
with the same expressions as :func:`tailnet.mrv._gaussian_cone_data`, which
solves only the size-i sets; the two must agree to the bit.  :func:`loop_mutual_ai` solves one subset at a time, as
the stacked :func:`tailnet.mrv.mutual_ai_gaussian` must agree with.  Test
helpers only.
"""

from itertools import combinations

import numpy as np

from tailnet import mrv


def scan_cone_data(m: np.ndarray, i: int, qp_of=None):
    """gamma_i, the argmin family S_i, |I_i| and the QP cache, by the full
    scan; ``qp_of`` may be a cache from an earlier scan of the same matrix."""
    d = m.shape[0]
    qp_of = qp_of or mrv._subset_qp_cache(m)
    gammas = {}
    for size in range(i, d + 1):
        for subset in combinations(range(d), size):
            gammas[subset] = qp_of(subset).gamma
    gamma_i = min(gammas.values())
    family = tuple(s for s, g in sorted(gammas.items())
                   if g <= gamma_i * (1.0 + mrv.TIE_TOL))
    card_i = min(len(qp_of(s).index_set) for s in family)
    return gamma_i, family, card_i, qp_of


class full_scan:
    """Run the public cone functions on :func:`scan_cone_data` inside a
    ``with`` block, so their answers can be compared with the search's.
    One instance keeps its scans per matrix and order, and its QP solutions
    per matrix, across blocks."""

    def __init__(self):
        self.caches, self.scans = {}, {}

    def scan(self, m, i):
        key = m.tobytes()
        if (key, i) not in self.scans:
            qp_of = self.caches.setdefault(key, mrv._subset_qp_cache(m))
            self.scans[key, i] = scan_cone_data(m, i, qp_of)
        return self.scans[key, i]

    def __enter__(self):
        self.search = mrv._gaussian_cone_data
        mrv._gaussian_cone_data = self.scan
        return self

    def __exit__(self, *exc):
        mrv._gaussian_cone_data = self.search


def loop_mutual_ai(sigma) -> bool:
    """Sigma_S^{-1} 1 > 0 for every subset, one solve per subset."""
    m = mrv._as_matrix(sigma)
    d = m.shape[0]
    for size in range(2, d + 1):
        for subset in combinations(range(d), size):
            ii = list(subset)
            h = np.linalg.solve(m[np.ix_(ii, ii)], np.ones(size))
            if np.min(h) <= 0.0:
                return False
    return True
