"""Dense Matrix Market files in array format, read and written with numpy.

The benchmark writes its own input files and reads the library's output
files with this module, so neither depends on ``targetkit.mmio``.
"""

import numpy as np


def write(path, matrix) -> None:
    """Write ``matrix`` column by column at full double precision."""
    a = np.asarray(matrix)
    kind = "complex" if np.iscomplexobj(a) else "real"
    lines = [f"%%MatrixMarket matrix array {kind} general", f"{a.shape[0]} {a.shape[1]}"]
    flat = a.reshape(-1, order="F")
    if kind == "complex":
        lines += [f"{v.real!r} {v.imag!r}" for v in flat.tolist()]
    else:
        lines += [repr(v) for v in flat.tolist()]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read(path) -> np.ndarray:
    """Read a dense array-format Matrix Market file."""
    with open(path) as handle:
        header = handle.readline().split()
        if len(header) < 5 or header[0] != "%%MatrixMarket" or header[2] != "array":
            raise ValueError(f"{path}: not an array-format Matrix Market file")
        lines = [ln for ln in handle if ln.strip() and not ln.startswith("%")]
    rows, cols = (int(v) for v in lines[0].split())
    values = np.array([ln.split() for ln in lines[1:]], dtype=float)
    if values.shape[0] != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, found {values.shape[0]}")
    if header[3] == "complex":
        flat = values[:, 0] + 1j * values[:, 1]
    else:
        flat = values[:, 0]
    return flat.reshape((rows, cols), order="F")
