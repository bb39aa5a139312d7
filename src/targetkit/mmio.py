"""Matrix Market file I/O for the command-line tools.

Thin wrappers over :mod:`scipy.io`: read any coordinate or array Matrix
Market file into a dense matrix, write dense matrices in array format at
full double precision so that write/read round-trips are exact. scipy is
loaded on the first read or write, so importing targetkit loads none of it.
"""

from pathlib import Path

import numpy as np

from .linalg import as_matrix

__all__ = ["read_matrix", "write_matrix"]


def read_matrix(path) -> np.ndarray:
    # scipy loads here, not at import: it takes 0.26 s, and only files need it
    import scipy.io
    import scipy.sparse

    data = scipy.io.mmread(str(path))
    if scipy.sparse.issparse(data):
        data = data.toarray()
    return as_matrix(data, str(path))


def write_matrix(path, matrix) -> None:
    # scipy loads here, not at import: it takes 0.26 s, and only files need it
    import scipy.io

    matrix = as_matrix(matrix, "matrix")
    # mmwrite appends .mtx to bare path names; an open handle keeps the
    # caller's path authoritative
    with Path(path).open("wb") as handle:
        scipy.io.mmwrite(handle, matrix, precision=17, symmetry="general")
