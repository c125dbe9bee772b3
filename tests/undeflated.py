"""The undeflated path, the oracle the partition is tested against.

Production reads every measure off a ``PartitionStack``.  These helpers read them
off the whole matrix instead: the three ``eigvalsh`` of A_L, A_R and A, and
the whitened negativity pencil on all of A.  A far-limit matrix is read in
its builder's folded real form, the union too when its coupling F is real
(``entanglement`` module docstring), as the solvers read it before every
measure went through the partition.
"""

import numpy as np

import nessent.entanglement as ent
from oracles import block_left, block_right
from nessent.correlation import CorrelationMatrix, FarMatrix, hermitian_matrix


def folded(cm):
    """Q^dag C Q of a far-limit matrix whose union folds, real symmetric and
    assembled from its folded blocks and F; any other matrix as it is."""
    if not isinstance(cm, FarMatrix) or np.iscomplexobj(cm.coupling):
        return cm
    return CorrelationMatrix(hermitian_matrix(cm.left.folded, cm.right.folded, cm.coupling.T), cm.n_left)


def spectra(cm):
    """``BlockSpectra`` of the whole matrix, with nothing deflated."""
    if isinstance(cm, FarMatrix):
        left, right = (CorrelationMatrix(block.folded, 0) for block in (cm.left, cm.right))
    else:
        left, right = block_left(cm), block_right(cm)
    (nu_a, clamp_a), (nu_l, clamp_l), (nu_r, clamp_r) = map(ent.occupation_spectrum, (folded(cm), left, right))
    empty = np.zeros(0)
    return ent.BlockSpectra(nu_l, nu_r, nu_a, clamp_a + clamp_l + clamp_r, empty, empty)


def negativity(cm):
    """E_1 of the whitened pencil on the whole matrix."""
    cm = folded(cm)
    return float(ent._whitened_pencil(cm.matrix, cm.n_left)[0])
