"""The broadcast log-space evaluator of the Bernstein basis: the oracle the band tests hold every row against.

No command evaluates the basis this way; every row a command reads is
walked by ``basis._band_passes``.  This evaluator runs the log-space path
of the walk's anchors (``basis._values``) on every entry it is given.
"""

import numpy as np

from singbern.basis import _LOG_B_ROWS, _PASS_ENTRIES, _log_const_table, _split_moments, _values, _workspace


def basis_values(n: int, x, k) -> np.ndarray:
    """Basis weights b(n, k, x) = C(n, k) x^k (1-x)^(n-k), broadcast over x and k.

    The log-space path of every anchor of a walked row, run on every
    entry.  Relative error stays below 1e-12 for n up to 1e6.  Endpoints
    are exact: x=0 gives 1 iff k=0, x=1 gives 1 iff k=n; the k=0 and k=n
    weights are direct powers.  A buffered iterator copies the broadcast
    input out in passes of at most _PASS_ENTRIES entries, each evaluated
    in one workspace, so memory beyond the result and the k-table is
    bounded whatever the input's size.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k))
    if not np.issubdtype(k.dtype, np.integer):
        raise ValueError("indices k must be integers")
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if k.size and not (k.min() >= 0 and k.max() <= n):
        raise ValueError(f"index k must lie in [0, {n}]")
    out = np.empty(x.shape)
    const = _log_const_table(n)
    ws = _workspace(_LOG_B_ROWS, min(x.size, _PASS_ENTRIES))
    with np.nditer([x, k, out], ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"], ["readonly"], ["writeonly"]], buffersize=_PASS_ENTRIES) as passes:
        for xp, kp, op in passes:
            op[...] = _values(n, xp, kp, _split_moments(n, xp), const, ws)
    return out
