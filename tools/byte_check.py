"""Compare two targetkit source trees, record by record, on one seeded corpus.

Usage::

    python tools/byte_check.py PARENT_SRC CHANGE_SRC

Each ``src`` tree runs the same corpus in an interpreter of its own,
with ``PYTHONPATH`` set to that tree and a fresh empty working
directory.  The corpus covers every property class through ``check`` and
every ``solve_*``: seeded real and complex instances of full and
deficient rank, rescaled by 1e-6, 1 and 1e6; every pair checked and
solved under every other class; zero, tiny, overflowing, non-finite,
non-numeric and misshapen inputs; inputs of every numpy dtype kind,
memory order and nesting that the coercion tells apart; products whose
Hermitian part is NaN; sources inside one eigenspace of a projector or
a reflector, scaled by 1, 1e4 and 1e9, under the normal-two-point
spectra {1, 0}, {0, 1} and {1, -1}; Hermitian pairs whose bordering
block L is zero; an invertible-Hermitian pair scaled by 2**-500 and
2**500; invertible-Hermitian pairs at 64 x 32 and 96 x 48 on both
branches of the bordering search (``|L|_2`` above and below ``|H|_2``)
and thin 64 x 8 ones; invertible-Hermitian pairs with ``H = 0`` whose
candidates tie exactly in ``+-lam``; positive-semidefinite pairs with a
singular bordering head (an orthogonal projector, X with columns in its
range and its kernel), scaled by 1e-6, 1 and 1e6, in the library and
through ``solve --property psd`` and ``verify``; positive-semidefinite
pairs whose ``X* Y`` has its least eigenvalue on either side of the rank
cutoff and a skew part near ``sym_tol``; invertible and
invertible-Hermitian pairs at 64 x 32 whose ``sigma_min(Y) / |Y|_F`` sits
well above, just above and just below the Cholesky rank certificate's
threshold, and below the SVD's rank cutoff; Hermitian, psd, pd and
invertible-Hermitian pairs on both sides of the size rule of the QR
frame (16 x 8, 16 x 16, 24 x 12 and 24 x 24, of full and deficient
rank, with a positive definite and an indefinite witness), and at 64 x
32 with ``sigma_min(X) / |X|_F`` just above and just below the Cholesky
rank certificate's threshold, where the QR frame declines; Hermitian-family
pairs in the thin frame of X's reduced QR with ``m - n > n`` (48 x 8 and
96 x 16, on both branches of the bordering search, and with a positive
definite witness); thin invertible-Hermitian pairs with ``H = 0`` whose
candidates ``+-lam`` tie exactly at the cap ``|lam|`` of the compressed
search; psd pairs whose head H sits just above and just below the decline
point of the psd border's Cholesky certificate, at 48 x 8 and 16 x 8; Hermitian, nearly
Hermitian and non-Hermitian matrices on either side of the
invertible-Hermitian audit's thresholds; positive definite and
invertible Hermitian matrices on either side of each audit's threshold
and of its Cholesky certificate's decline point, scaled by 2**-400, 1
and 2**400, through ``verify_property``, ``check``, the solvers (as the
unique solution of a square pair, and from a thin one) and ``verify``;
a unitary pair under a symmetry tolerance below rounding; the public
names, linear-algebra and source helpers; and the command line
(``check``, ``solve``, ``verify``, ``generate``,
``generate-source``, ``gap``) in JSON and text, with and without the
tolerance flags, including partly written outputs, the order of usage
errors and the range of seeds.

A record is a key naming the call and a rendering of its outcome: arrays
by dtype, shape and a SHA-256 of their bytes, floats by ``float.hex``,
errors by type, message and payload, command-line runs by exit code,
stdout, stderr and the bytes of every file written.  The script prints
each tree's record count and digest, the keys that only one tree
recorded (a call whose outcome changed can add or drop the calls that
follow from it, such as the verify of a written solution), then the
number of matched records that differ, the first of them in full, the
keys of up to 19 more and a tally of every differing record by call
(the key's first word; for the command line, the subcommand and the
``--property`` value) and by the rendered field that differs.  It exits 0 when the two record streams are
equal and 1 otherwise.  Only the standard library and numpy are used.
"""

import contextlib
import dataclasses
import difflib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np

SEED = 20261018
SCALES = (1e-6, 1.0, 1e6)
OUTPUT_FLAGS = ("--out", "--out-x", "--out-y", "--out-witness", "--report")
# a distinct value per field, so a flag that lands in the wrong field shows
TOLERANCE_FLAGS = ("--rank-tol", "1e-6", "--res-tol", "1e-7", "--sym-tol", "1e-8", "--psd-tol", "1e-9")
SHAPES = ((1, 1), (2, 1), (3, 2), (4, 4), (5, 3), (6, 1), (8, 4), (12, 6), (16, 16), (24, 12))
# the normal-two-point spectra of the one-eigenspace pairs, in both orientations of {1, 0}
ORIENTATIONS = ((1, 0), (0, 1), (1, -1))


# -- rendering --------------------------------------------------------------


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def render(obj) -> str:
    """A deterministic one-line rendering that changes with any bit of ``obj``."""
    if isinstance(obj, np.ndarray):
        return f"{obj.dtype}{list(obj.shape)}:{_digest(np.ascontiguousarray(obj).tobytes())}"
    if isinstance(obj, (bool, np.bool_, type(None), str, int, np.integer)):
        return f"{type(obj).__name__}:{obj!r}"
    if isinstance(obj, (float, np.floating)):
        return f"{type(obj).__name__}:{float(obj).hex()}"
    if isinstance(obj, (complex, np.complexfloating)):
        return f"{type(obj).__name__}:{complex(obj).real.hex()},{complex(obj).imag.hex()}"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{k!r}={render(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render(v) for v in obj) + "]"
    if isinstance(obj, BaseException):
        payload = {k: v for k, v in sorted(vars(obj).items())}
        return f"!{type(obj).__name__}: {obj}" + (f" {render(payload)}" if payload else "")
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return f"{type(obj).__name__}{render(fields)}"
    return f"{type(obj).__name__}:{obj!r}"


class Recorder:
    def __init__(self, out):
        self.out = out

    def __call__(self, key: str, fn):
        try:
            value = render(fn())
        except Exception as exc:  # every error is part of the record
            value = render(exc)
        self.out.write(f"{key}\t{value}\n")


# -- the corpus -------------------------------------------------------------


def _classes(tk):
    two_point_real = tk.normal_two_point(1.5, -0.5)
    two_point_complex = tk.normal_two_point(1j, -2.0)
    return [
        tk.UNCONSTRAINED, tk.INVERTIBLE, tk.HERMITIAN, tk.INVERTIBLE_HERMITIAN,
        tk.POSITIVE_SEMIDEFINITE, tk.POSITIVE_DEFINITE, tk.UNITARY, tk.REFLECTION,
        tk.ORTHOGONAL_PROJECTION, tk.COMPLEX_SYMMETRIC, two_point_real, two_point_complex,
        tk.NORMAL_VECTOR,
    ]


def _solvers(tk, prop):
    """Every entry point that solves for ``prop``, as (name, call(X, Y, tol))."""
    table = {
        "unconstrained": [("solve_unconstrained", tk.solve_unconstrained)],
        "invertible": [("solve_invertible", tk.solve_invertible)],
        "hermitian": [("solve_hermitian", tk.solve_hermitian)],
        "invertible-hermitian": [("solve_invertible_hermitian", tk.solve_invertible_hermitian)],
        "positive-semidefinite": [("solve_psd", tk.solve_psd)],
        "positive-definite": [("solve_pd", tk.solve_pd)],
        "unitary": [("solve_unitary", tk.solve_unitary), ("solve_unitary_polar", tk.solve_unitary_polar)],
        "reflection": [("solve_reflection", tk.solve_reflection)],
        "orthogonal-projection": [("solve_projection", tk.solve_projection)],
        "complex-symmetric": [("solve_complex_symmetric", tk.solve_complex_symmetric)],
        "normal-vector": [("solve_normal_vector", tk.solve_normal_vector)],
    }
    if prop.kind == "normal-two-point":
        return [("solve_normal_two_point",
                 lambda X, Y, tol=None: tk.solve_normal_two_point(X, Y, prop.lam, prop.mu, tol=tol))]
    return [(name, lambda X, Y, tol=None, fn=fn: fn(X, Y, tol=tol)) for name, fn in table[prop.kind]]


def _instances(tk):
    for prop in _classes(tk):
        for field in ("real", "complex"):
            if field == "real" and prop.kind == "normal-two-point" and prop.lam.imag:
                continue
            for m, n in SHAPES:
                if prop.kind == "normal-vector" and n != 1:
                    continue
                if prop.kind == "normal-two-point" and m < 2:
                    continue
                for deficiency in sorted({0, 1, min(m, n) // 2}):
                    if deficiency >= min(m, n):
                        continue
                    seed = SEED + 7 * m + 131 * n + deficiency
                    spec = tk.InstanceSpec(prop, m=m, n=n, seed=seed, field=field,
                                           rank_deficiency=deficiency)
                    X, Y, _ = tk.generate_instance(spec)
                    yield f"{prop.label()}/{field}/{m}x{n}/d{deficiency}", X, Y


def _negative_zero_imag(a):
    # complex-typed real data whose imaginary parts are all -0.0
    z = a.astype(complex)
    z.imag = -0.0
    return z


def _edge_pairs():
    rng = np.random.default_rng(SEED)
    G = rng.standard_normal((4, 2))
    Gc = G + 1j * rng.standard_normal((4, 2))
    # complex data whose difference or two-point range is exactly real
    Xr = Gc.copy()
    Xr[0] = G[0]
    P = np.diag([1.0, 0.0, 0.0, 0.0])
    # Q[:, 2] is orthogonal to col G, so its reflector fixes G up to rounding
    Q = np.linalg.qr(G, mode="complete")[0]
    v = Q[:, 2:3]
    ticks = np.arange(8).reshape(4, 2)
    return {
        "zero-zero": (np.zeros((3, 2)), np.zeros((3, 2))),
        "zero-square": (np.zeros((3, 3)), np.zeros((3, 3))),
        "zero-vector": (np.zeros((3, 1)), np.zeros((3, 1))),
        "zero-x": (np.zeros((4, 2)), G),
        "zero-y": (G, np.zeros((4, 2))),
        "tiny-complex-zero": (1e-310j * np.ones((3, 2)), np.zeros((3, 2))),
        "tiny-x": (1e-305 * G, G),
        "tiny-y": (G, 1e-305 * G),
        "tiny-block": (np.diag([1e20, 0.0]), np.diag([1e-150, 0.0])),
        "underflow": (1e-170 * G, 1e-170 * Gc),
        "overflow": (np.diag([1.0, 1e160]), np.diag([1.0, 1e160])),
        "huge": (1e300 * G, 1e300 * G),
        "complex-typed-real": (G.astype(complex), (2 * G).astype(complex)),
        "same-complex": (Gc, Gc),
        "conjugate": (Gc, Gc.conj()),
        "equal-imag": (Gc, Gc + 0.5),
        "real-difference": (Xr, (np.eye(4) - 2 * P) @ Xr),
        "real-two-point-range": (Xr, (1.5 * P - 0.5 * (np.eye(4) - P)) @ Xr),
        "scalar-multiple": (np.eye(3), 1.5 * np.eye(3)),
        "scalar-multiple-i": (np.eye(3), 1j * np.eye(3)),
        "one-by-one": (np.array([[2.0]]), np.array([[-3.0]])),
        "one-by-one-complex": (np.array([[2.0 + 1j]]), np.array([[1.0 - 1j]])),
        "row-vector-1d": (np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])),
        "integer": (np.arange(6).reshape(3, 2), np.arange(6).reshape(3, 2)),
        "boolean": (np.eye(3, 2, dtype=bool), np.eye(3, 2, dtype=bool)),
        "shape-mismatch": (np.ones((3, 2)), np.ones((2, 3))),
        "three-d": (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
        "empty": (np.ones((0, 2)), np.ones((0, 2))),
        "nan": (np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2)),
        "inf": (np.eye(2), np.array([[1.0, 0.0], [0.0, np.inf]])),
        "strings": (np.array([["a", "b"]]), np.array([["a", "b"]])),
        "wide": (rng.standard_normal((2, 4)), rng.standard_normal((2, 4))),
        "rank-one-product": (np.outer([1.0, 2.0, 0.0], [1.0, 1.0]), np.outer([2.0, 4.0, 1e-13], [1.0, 1.0])),
        "fixed-space": (G, (np.eye(4) - 2 * v @ v.T) @ G),
        "noise-range": (G, Q @ (1.5 * (Q.T @ G))),
        # finite norms, but A = (|y| / |x|) U overflows
        "overflowing-ratio": (1e-160 * np.ones((3, 1)), 1e153 * np.ones((3, 1))),
        # X*Y overflows, and its Hermitian part holds inf - inf = NaN
        "nan-product": (1e200 * np.eye(2), np.array([[1.0, 1e200], [-1e200, 1.0]])),
        # the bordering block's norm is finite, its square is not
        "huge-border": (np.array([[1e-80], [0.0]]), np.array([[0.0], [1e80]])),
        # X*Y = 1, but the leading block 1e-200 / 1e200 underflows to zero
        "underflowed-head": (np.array([[1e200], [0.0]]), np.array([[1e-200], [0.0]])),
        # every dtype kind, memory order and nesting the coercion tells apart
        "float16": (G.astype(np.float16), (Q @ G).astype(np.float16)),
        "float32": (G.astype(np.float32), (Q @ G).astype(np.float32)),
        "longdouble": (G.astype(np.longdouble), (-G).astype(np.longdouble)),
        "complex64": (Gc.astype(np.complex64), (1j * Gc).astype(np.complex64)),
        "timedelta64": (ticks.astype("m8[s]"), ticks[::-1].astype("m8[s]")),
        "datetime64": (ticks.astype("M8[s]"), ticks.astype("M8[s]")),
        "object-numbers": (G.astype(object), (2 * G).astype(object)),
        "fortran-order": (np.asfortranarray(Gc), np.asfortranarray(Q @ Gc)),
        "strided-view": (np.repeat(G, 2, axis=1)[:, ::2], np.repeat(Q @ G, 2, axis=0)[::2]),
        "nested-lists": (G.tolist(), (Q @ G).tolist()),
        "negative-zero-imag": (_negative_zero_imag(G), _negative_zero_imag(Q @ G)),
        "negative-zero-imag-y": (G, _negative_zero_imag(2 * G)),
        # Y = W X maps col X into itself, so the bordering block L is zero
        "zero-border-real": (np.eye(3, 2), np.diag([2.0, -1.0, 3.0]) @ np.eye(3, 2)),
        "zero-border-complex": (np.eye(3, 2), np.array([[2.0, 1j, 0.0], [-1j, -1.0, 0.0], [0.0, 0.0, 3.0]])
                                @ np.eye(3, 2)),
    }


def _one_eigenspace_pairs():
    # X = c G with col G inside one eigenspace of the witness, so Y = X up to
    # rounding and Y - lam X or Y - mu X is rounding noise: the projector onto
    # col [G, g] (spectrum {1, 0}) and the reflector fixing col G ({1, -1})
    for field in ("real", "complex"):
        rng = np.random.default_rng(1)

        def draw(shape):
            G = rng.standard_normal(shape)
            return G + 1j * rng.standard_normal(shape) if field == "complex" else G

        G, g = draw((5, 2)), draw((5, 1))
        Q = np.linalg.qr(np.hstack([G, g]))[0]
        v = np.linalg.qr(G, mode="complete")[0][:, 2:3]
        for name, A in (("projector", Q @ Q.conj().T), ("reflector", np.eye(5) - 2 * v @ v.conj().T)):
            for c in (1.0, 1e4, 1e9):
                yield f"{name}-{field}-c{c:g}", c * G, A @ (c * G)


# B*B overflows to inf - inf = NaN, so the gap matrix holds a NaN
NAN_GAP = np.array([[-0.0, 0.0], [5e-324, 1e308]])


def _power_of_two_pairs(tk):
    # an invertible-Hermitian pair whose target is scaled by 2**-500 and 2**500
    for field in ("real", "complex"):
        spec = tk.InstanceSpec(tk.INVERTIBLE_HERMITIAN, m=4, n=2, seed=73_000, field=field, rank_deficiency=1)
        X, Y, _ = tk.generate_instance(spec)
        for k in (-500, 500):
            yield f"invertible-hermitian-{field}-4x2-d1-2^{k}", X, 2.0**k * Y


def _bordering_pairs():
    # invertible-Hermitian pairs at the sizes where the bordering search
    # prunes most: the witness is a random Hermitian A whose off-diagonal
    # block is scaled so that the solver's |L|_2 is above |H|_2 (3) or
    # below it (0.05), and a thin source leaves L more rows than columns
    rng = np.random.default_rng(SEED)
    for m, n, offs in ((64, 32, (3.0, 0.05)), (96, 48, (3.0, 0.05)), (64, 8, (1.0,))):
        for field in ("real", "complex"):
            for off in offs:
                G = rng.standard_normal((m, m))
                if field == "complex":
                    G = G + 1j * rng.standard_normal((m, m))
                A = (G + G.conj().T) / 2
                A[n:, :n] *= off
                A[:n, n:] *= off
                X = np.vstack([np.diag(np.exp(rng.uniform(-0.7, 0.7, n))), np.zeros((m - n, n))])
                yield f"invertible-hermitian-{field}-{m}x{n}-off-diagonal-{off}", X, A @ X


def _psd_singular_pairs():
    # psd pairs whose bordering head H is singular: the witness is an
    # orthogonal projector and X has columns in both its range and its
    # kernel, so H holds the projector's zero eigenvalues on col X
    rng = np.random.default_rng(SEED + 6)
    for field in ("real", "complex"):
        def draw(shape):
            G = rng.standard_normal(shape)
            return G + 1j * rng.standard_normal(shape) if field == "complex" else G

        for m, k, in_range, in_kernel in ((6, 3, 2, 2), (8, 4, 3, 2)):
            Q = np.linalg.qr(draw((m, m)))[0]
            X = np.hstack([Q[:, :k] @ draw((k, in_range)), Q[:, k:] @ draw((m - k, in_kernel))])
            A = Q[:, :k] @ Q[:, :k].conj().T
            for c in SCALES:
                yield f"psd-singular-head-{field}-{m}x{in_range + in_kernel}-c{c:g}", c * X, A @ (c * X)


def _tie_pairs():
    # invertible-Hermitian pairs with H = 0 and L unitary: B(lam) and
    # B(-lam) have the same singular values, so the bordering search meets
    # exact +-lam ties that only rounding breaks
    rng = np.random.default_rng(SEED + 7)
    for field in ("real", "complex"):
        for k in (2, 3):
            G = rng.standard_normal((k, k))
            U = np.linalg.qr(G + 1j * rng.standard_normal((k, k)) if field == "complex" else G)[0]
            X = np.vstack([np.eye(k), np.zeros((k, k))])
            yield f"invertible-hermitian-tie-{field}-{2 * k}x{k}", X, np.vstack([np.zeros((k, k)), U])


def _orthonormal(rng, rows, cols, field):
    G = rng.standard_normal((rows, cols))
    return np.linalg.qr(G + 1j * rng.standard_normal((rows, cols)) if field == "complex" else G)[0]


def _rank_certificate_pairs():
    # invertible and invertible-Hermitian pairs at 64 x 32 around the
    # Cholesky rank certificate of Y: X = U D V* and Y = U S V* with U, V
    # orthonormal and D = diag(+-1), so X* Y = V D S V* is Hermitian.
    # sigma_min(Y) / |Y|_F sits at 1e3, 1.05 and 0.95 times the
    # certificate's threshold sqrt(t) / |Y|_F (the last falls back to Y's
    # SVD), and at 1e-13, below the SVD's rank cutoff
    rng = np.random.default_rng(SEED + 8)
    m, n, eps = 64, 32, np.finfo(float).eps
    a = 8 * (m + n) * eps
    threshold = np.sqrt((1e-12 * m * (1 + a) + 2 * a) ** 2 + 2 * (m + n + 4) * eps)
    for field in ("real", "complex"):
        for name, ratio in (("well-above", 1e3 * threshold), ("just-above", 1.05 * threshold),
                            ("just-below", 0.95 * threshold), ("rank-deficient", 1e-13)):
            U, V = _orthonormal(rng, m, n, field), _orthonormal(rng, n, n, field)
            s = rng.uniform(0.5, 1.0, n)
            s[-1] = ratio * np.sqrt(np.sum(s[:-1] ** 2) / (1 - ratio**2))
            d = rng.choice([-1.0, 1.0], n)
            yield f"rank-certificate-{field}-{m}x{n}-{name}", (U * d) @ V.conj().T, (U * s) @ V.conj().T


def _qr_frame_pairs():
    # Hermitian-family pairs on both sides of the QR frame's size rule (an X
    # of full column rank with m >= 24): X Gaussian of full rank or one
    # below it, Y = A X for a positive definite A, feasible for all four
    # classes, and for an indefinite Hermitian A, which psd and pd refuse.
    # Then X at 64 x 32 whose sigma_min / |X|_F sits at 1.05 and 0.95
    # times the threshold of the Cholesky rank certificate, where the QR
    # frame declines
    rng = np.random.default_rng(SEED + 11)
    for field in ("real", "complex"):
        def draw(shape):
            G = rng.standard_normal(shape)
            return G + 1j * rng.standard_normal(shape) if field == "complex" else G

        for m, n in ((16, 8), (16, 16), (24, 12), (24, 24)):
            for rank in ("full", "deficient"):
                X = draw((m, n)) if rank == "full" else draw((m, n - 1)) @ draw((n - 1, n))
                G = draw((m, m))
                for name, A in (("pd", G.conj().T @ G + np.eye(m)), ("indefinite", (G + G.conj().T) / 2)):
                    yield f"qr-frame-{field}-{m}x{n}-{rank}-{name}", X, A @ X
        m, n, eps = 64, 32, np.finfo(float).eps
        a = 8 * (m + n) * eps
        threshold = np.sqrt((1e-12 * m * (1 + a) + 2 * a) ** 2 + 2 * (m + n + 4) * eps)
        for name, ratio in (("just-above", 1.05 * threshold), ("just-below", 0.95 * threshold)):
            U, V = _orthonormal(rng, m, n, field), _orthonormal(rng, n, n, field)
            s = rng.uniform(0.5, 1.0, n)
            s[-1] = ratio * np.sqrt(np.sum(s[:-1] ** 2) / (1 - ratio**2))
            X = (U * s) @ V.conj().T
            G = draw((m, m))
            yield f"qr-frame-decline-{field}-{m}x{n}-{name}", X, (G.conj().T @ G + np.eye(m)) @ X


def _thin_frame_pairs():
    # Hermitian-family pairs that the thin frame of X's reduced QR serves
    # with m - n > n, at 48 x 8 and 96 x 16: X Gaussian of full rank and Y =
    # A X for a random Hermitian A whose off-diagonal block is scaled so
    # that |L|_2 is above |H|_2 (3) or below it (0.05), which psd and pd
    # refuse, and for a positive definite A, feasible for all four classes
    rng = np.random.default_rng(SEED + 12)
    for field in ("real", "complex"):
        def draw(shape):
            G = rng.standard_normal(shape)
            return G + 1j * rng.standard_normal(shape) if field == "complex" else G

        for m, n in ((48, 8), (96, 16)):
            # A = F M F* and X = F1 C for F unitary, F1 its first n columns:
            # H and L are the blocks of M up to unitary factors
            F = _orthonormal(rng, m, m, field)
            X = F[:, :n] @ draw((n, n))
            for off in (3.0, 0.05):
                G = draw((m, m))
                M = (G + G.conj().T) / 2
                M[n:, :n] *= off
                M[:n, n:] *= off
                yield f"thin-frame-{field}-{m}x{n}-off-diagonal-{off}", X, F @ M @ F.conj().T @ X
            G = draw((m, m))
            yield f"thin-frame-{field}-{m}x{n}-pd", X, (G.conj().T @ G + np.eye(m)) @ X


def _cap_tie_pairs():
    # invertible-Hermitian pairs in the thin frame with H = 0: X = [I; 0] at
    # 24 x 2 and Y = [0; L] with L of singular values 1 and 0.5, so the
    # candidates +-1/3 both score exactly 1/3 at the cap |lam| of the
    # compressed search and beat every other candidate
    rng = np.random.default_rng(SEED + 13)
    m, n = 24, 2
    for field in ("real", "complex"):
        U, V = _orthonormal(rng, m - n, n, field), _orthonormal(rng, n, n, field)
        X = np.vstack([np.eye(n), np.zeros((m - n, n))])
        yield f"cap-tie-{field}-{m}x{n}", X, np.vstack([np.zeros((n, n)), (U * [1.0, 0.5]) @ V.conj().T])


def _psd_certificate_pairs():
    # psd pairs whose head H sits on either side of the decline point of
    # the psd border's Cholesky certificate: X has orthonormal columns and
    # Y = X H0 + X2 K with X2 orthonormal off col X, H0 positive definite of
    # spectral norm 1 with least eigenvalue 1.05 and 0.95 times the shift
    # the certificate takes of it, at 48 x 8 (the thin frame) and 16 x 8
    # (the SVD frame).  K annihilates the least eigenvector of H0, which
    # keeps lam near 1 rather than near the reciprocal of that eigenvalue
    rng = np.random.default_rng(SEED + 14)
    eps = np.finfo(float).eps
    for field in ("real", "complex"):
        for m, n in ((48, 8), (16, 8)):
            mu = 8 * n * eps + ((n + 4) * np.sqrt(n) + 1) * eps
            for name, factor in (("just-above", 1.05), ("just-below", 0.95)):
                h = np.concatenate([[1.0], rng.uniform(0.5, 1.0, n - 1)])
                norm = np.sqrt(np.sum(h[:-1] ** 2) + 1e-30)
                # the least eigenvalue, solved from h_min = factor * t(|H0|_F)
                # with t(N) = N (1 + n^2 eps)(1 + 8 n eps)(c + 2 mu) and h_min << N
                h[-1] = factor * norm * (1 + n * n * eps) * (1 + 8 * n * eps) * (1e-12 * n + 2 * mu)
                Q = _orthonormal(rng, n, n, field)
                H0 = (Q * h) @ Q.conj().T
                H0 = (H0 + H0.conj().T) / 2
                F = _orthonormal(rng, m, 2 * n, field)
                X, X2 = F[:, :n], F[:, n:]
                q = Q[:, -1:]
                K = _orthonormal(rng, n, n, field) @ (np.eye(n) - q @ q.conj().T)
                yield f"psd-certificate-{field}-{m}x{n}-{name}", X, X @ H0 + X2 @ K


def _psd_straddle_pairs():
    # psd pairs with X* Y = H + K: H Hermitian positive semidefinite of
    # spectral norm 1 whose least eigenvalue sits at 0.5 and 2 times the
    # rank cutoff 1e-12 * n of X* Y's SVD, and K skew-Hermitian at 0, 0.5
    # and 2 times sym_tol relative to |H|_F, around the null-equality
    # certificate; X has orthonormal columns, so X* Y = H + K up to rounding
    rng = np.random.default_rng(SEED + 9)
    m, n = 16, 8
    for field in ("real", "complex"):
        for factor in (0.5, 2.0):
            for skew in (0.0, 0.5, 2.0):
                h = np.concatenate([[1.0], rng.uniform(0.5, 1.0, n - 2), [factor * 1e-12 * n]])
                Q = _orthonormal(rng, n, n, field)
                H = (Q * h) @ Q.conj().T
                H = (H + H.conj().T) / 2
                K = _orthonormal(rng, n, n, field)
                K = K - K.conj().T
                K *= skew * 1e-10 * np.linalg.norm(H) / (2 * np.linalg.norm(K))
                X = _orthonormal(rng, m, n, field)
                yield f"psd-straddle-{field}-{m}x{n}-least-{factor}-skew-{skew}", X, X @ (H + K)


def _audit_boundary_matrices():
    # 6 x 6 matrices around the invertible-Hermitian audit: Hermitian ones
    # with sigma_min / sigma_max at 0.5, 1 and 2 times the invertible
    # threshold (6e-12 at m = 6); H + delta K with K skew-Hermitian of unit
    # norm, delta putting the hermitian measure at 0.5 and 2 times sym_tol,
    # and H nearly singular or not; and a clearly non-Hermitian matrix
    rng = np.random.default_rng(SEED + 5)
    cutoff, sym_tol = 6e-12, 1e-10
    out = {}
    for field in ("real", "complex"):
        def draw():
            G = rng.standard_normal((6, 6))
            return G + 1j * rng.standard_normal((6, 6)) if field == "complex" else G

        def hermitian(ratio):
            Q = np.linalg.qr(draw())[0]
            A = (Q * np.array([1.0, -0.8, 0.6, -0.4, 0.2, -ratio])) @ Q.conj().T
            return (A + A.conj().T) / 2

        for factor in (0.5, 1.0, 2.0):
            out[f"hermitian-{field}-ratio-{factor}"] = hermitian(factor * cutoff)
        for factor in (0.5, 2.0, 1000.0):
            H = hermitian(factor * cutoff)
            K = draw()
            K = (K - K.conj().T) / np.linalg.norm(K - K.conj().T)
            for skew in (0.5, 2.0):
                out[f"skew-{field}-ratio-{factor}-delta-{skew}"] = H + skew * sym_tol * np.linalg.norm(H) / 2 * K
        out[f"non-hermitian-{field}"] = draw()
    return out


def _certificate_boundary_matrices():
    # 6 x 6 Hermitian matrices around the Cholesky certificates of the pd
    # and invertible-Hermitian audits.  The eigenvalues are 1, 0.8, 0.6,
    # 0.4, 0.2 and a least one, all positive or of alternating sign, whose
    # ratio to the largest sits at 0.5 and 2 times the measure's threshold
    # and the certificate's decline point (the shift over |A|_F, times
    # |A|_F); each is scaled by 2**-400, 1 and 2**400
    rng = np.random.default_rng(SEED + 10)
    m, eps = 6, np.finfo(float).eps
    a = 8 * m * eps
    mu = a + ((m + 4) * np.sqrt(m) + 1) * eps
    c = 1e-12 * m
    d = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    norm = np.sqrt(np.sum(d**2))
    points = {
        "positive-definite": {"threshold": 1e-10, "decline": (1e-10 + 2 * mu) * norm},
        "invertible-hermitian": {
            "threshold": c,
            "decline": np.sqrt((c + 2 * a) ** 2 + 2 * (2 * m + 4) * eps) * norm,
        },
    }
    out = {}
    for field in ("real", "complex"):
        for kind, at in points.items():
            signs = np.ones(m) if kind == "positive-definite" else (-1.0) ** np.arange(m)
            for point, ratio in at.items():
                for factor in (0.5, 2.0):
                    Q = _orthonormal(rng, m, m, field)
                    A = (Q * (signs * np.append(d, factor * ratio))) @ Q.conj().T
                    A = (A + A.conj().T) / 2
                    for k in (-400, 0, 400):
                        out[f"{kind}-{field}-{point}-{factor}-2^{k}"] = 2.0**k * A
    return out


def _tight_unitary_pair(tk):
    # a feasible pair whose completed unitary frames are orthonormal only to
    # about 1e-15, so sym_tol=1e-16 fails every unitary construction
    X, Y, _ = tk.generate_instance(tk.InstanceSpec(tk.UNITARY, m=6, n=3, seed=1, field="complex"))
    return X, Y


def _library(tk, rec):
    classes = _classes(tk)
    loose = tk.TolerancePolicy(rank_rel_cutoff=1e-3, residual_tol=1e-6, sym_tol=1e-6, psd_tol=1e-6)
    for key, X0, Y0 in _instances(tk):
        for c in SCALES:
            X, Y = c * X0, c * Y0
            for prop in classes:
                rec(f"check {prop.label()} on {key} c={c}", lambda: tk.check(prop, X, Y).to_dict())
                if c != 1.0 and not key.startswith(prop.label() + "/"):
                    continue
                for name, solve in _solvers(tk, prop):
                    rec(f"{name} on {key} c={c}", lambda: solve(X, Y))
        if "/8x4/" in key or "/5x3/" in key:
            for prop in classes:
                rec(f"check loose {prop.label()} on {key}", lambda: tk.check(prop, X0, Y0, loose).to_dict())
                for name, solve in _solvers(tk, prop):
                    rec(f"{name} loose on {key}", lambda: solve(X0, Y0, loose))
            rec(f"completion_blocks on {key}", lambda: tk.completion_blocks(X0, Y0))

    for key, (X, Y) in _edge_pairs().items():
        for prop in classes:
            rec(f"check {prop.label()} on edge {key}", lambda: tk.check(prop, X, Y).to_dict())
            for name, solve in _solvers(tk, prop):
                rec(f"{name} on edge {key}", lambda: solve(X, Y))
        rec(f"completion_blocks on edge {key}", lambda: tk.completion_blocks(X, Y))

    orientations = [tk.normal_two_point(lam, mu) for lam, mu in ORIENTATIONS]
    for key, X, Y in _one_eigenspace_pairs():
        for prop in classes + orientations:
            rec(f"check {prop.label()} on {key}", lambda: tk.check(prop, X, Y).to_dict())
            for name, solve in _solvers(tk, prop):
                rec(f"{name} {prop.label()} on {key}", lambda: solve(X, Y))

    X, Y = _tight_unitary_pair(tk)
    for name, solve in _solvers(tk, tk.UNITARY):
        rec(f"{name} sym_tol=1e-16 on unitary/complex/6x3/seed 1", lambda: solve(X, Y, tk.TolerancePolicy(sym_tol=1e-16)))
    for key, X, Y in [*_power_of_two_pairs(tk), *_bordering_pairs(), *_tie_pairs()]:
        rec(f"solve_invertible_hermitian on {key}", lambda: tk.solve_invertible_hermitian(X, Y))
    for key, X, Y in [*_psd_singular_pairs(), *_psd_straddle_pairs()]:
        rec(f"check {tk.POSITIVE_SEMIDEFINITE.label()} on {key}",
            lambda: tk.check(tk.POSITIVE_SEMIDEFINITE, X, Y).to_dict())
        rec(f"solve_psd on {key}", lambda: tk.solve_psd(X, Y))
    for key, X, Y in _rank_certificate_pairs():
        for prop in (tk.INVERTIBLE, tk.INVERTIBLE_HERMITIAN):
            rec(f"check {prop.label()} on {key}", lambda: tk.check(prop, X, Y).to_dict())
            for name, solve in _solvers(tk, prop):
                rec(f"{name} on {key}", lambda: solve(X, Y))
    for key, X, Y in [*_qr_frame_pairs(), *_thin_frame_pairs(), *_cap_tie_pairs(), *_psd_certificate_pairs()]:
        for prop in (tk.HERMITIAN, tk.INVERTIBLE_HERMITIAN, tk.POSITIVE_SEMIDEFINITE, tk.POSITIVE_DEFINITE):
            rec(f"check {prop.label()} on {key}", lambda: tk.check(prop, X, Y).to_dict())
            for name, solve in _solvers(tk, prop):
                rec(f"{name} on {key}", lambda: solve(X, Y))
    _free_parameters(tk, rec)
    _helpers(tk, rec)


def _free_parameters(tk, rec):
    rng = np.random.default_rng(SEED + 1)
    for field in ("real", "complex"):
        for prop in (tk.UNCONSTRAINED, tk.HERMITIAN, tk.COMPLEX_SYMMETRIC):
            spec = tk.InstanceSpec(prop, m=6, n=3, seed=SEED + 2, field=field, rank_deficiency=1)
            X, Y, _ = tk.generate_instance(spec)
            Z = rng.standard_normal((6, 6))
            G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            key = f"{prop.label()}/{field}"
            rec(f"solve_unconstrained Z_free on {key}", lambda: tk.solve_unconstrained(X, Y, Z_free=Z))
            rec(f"solve_unconstrained bad Z_free on {key}", lambda: tk.solve_unconstrained(X, Y, Z_free=Z[:2]))
            for lam in (2.5, -1.0, 3j, "x"):
                rec(f"solve_hermitian lambda_free={lam!r} on {key}",
                    lambda: tk.solve_hermitian(X, Y, lambda_free=lam))
            for name, g in (("symmetric", G + G.T), ("asymmetric", G), ("bad-shape", G[:2])):
                rec(f"solve_complex_symmetric G_free {name} on {key}",
                    lambda: tk.solve_complex_symmetric(X, Y, G_free=g))


def _matrices():
    rng = np.random.default_rng(SEED + 3)
    out = {}
    for m, n in ((1, 1), (3, 3), (5, 2), (2, 5), (8, 8), (12, 5)):
        for field in ("real", "complex"):
            G = rng.standard_normal((m, n))
            if field == "complex":
                G = G + 1j * rng.standard_normal((m, n))
            out[f"{field}-{m}x{n}"] = G
            k = max(1, min(m, n) - 1)
            out[f"{field}-{m}x{n}-rank{k}"] = G[:, :k] @ rng.standard_normal((k, n))
    out.update({
        "zero-3x2": np.zeros((3, 2)), "zero-complex-2x2": np.zeros((2, 2), dtype=complex),
        "tiny": np.full((3, 3), 1e-305), "huge": np.full((3, 2), 1e300),
        "vector-1d": np.array([1.0, -2.0, 2.0]), "nan": np.array([[np.nan, 1.0]]),
        "three-d": np.ones((2, 2, 2)), "empty": np.ones((2, 0)), "strings": np.array([["a"]]),
        "near-rank": np.diag([1.0, 1e-13, 1e-11]),
    })
    return out


def _helpers(tk, rec):
    loose = tk.TolerancePolicy(rank_rel_cutoff=0.3)
    for key, M in _matrices().items():
        for tol_name, tol in (("default", None), ("loose", loose)):
            for name in ("svd_partitioned", "numerical_rank"):
                rec(f"{name} {tol_name} on {key}", lambda: getattr(tk, name)(M, tol))
            # the null space, pseudoinverse and projector are views on the factors
            for view, read in (("W2", lambda f: f.W2), ("pinv", lambda f: f.pinv()),
                               ("projector", lambda f: f.projector())):
                rec(f"svd_partitioned .{view} {tol_name} on {key}", lambda: read(tk.svd_partitioned(M, tol)))

    rng = np.random.default_rng(SEED + 4)
    for field in ("real", "complex"):
        for r, p in ((1, 1), (3, 2), (4, 4)):
            G = rng.standard_normal((r, r)) + (1j * rng.standard_normal((r, r)) if field == "complex" else 0)
            H = (G + G.conj().T) / 2
            Hs = H.copy()
            Hs[:, 0] = Hs[0, :] = 0.0
            L = rng.standard_normal((p, r))
            Lk = L.copy()
            Lk[:, 0] = 0.0
            for name, head, border in (("H L", H, L), ("singular-H L", Hs, L),
                                       ("singular-H L-killing-null-H", Hs, Lk)):
                for variant in ("eliminate-corner", "eliminate-head", "eliminate-head-pseudo", "other"):
                    for lam in (0.0, 2.5, 1 + 1j):
                        rec(f"schur_congruence {variant} {field} {r}x{p} {name} lam={lam}",
                            lambda: tk.schur_congruence(head, border, lam, variant))
        B = rng.standard_normal((4, 4)) + (1j * rng.standard_normal((4, 4)) if field == "complex" else 0)
        rec(f"completion_gap {field}", lambda: tk.completion_gap(B, B.T))
        rec(f"completion_gap zero {field}", lambda: tk.completion_gap(B, np.zeros((4, 4))))
        rec(f"completion_gap shape {field}", lambda: tk.completion_gap(B, B[:2]))
    rec("completion_gap nan", lambda: tk.completion_gap(NAN_GAP, NAN_GAP))

    for field in ("real", "complex"):
        for m, n, k in ((5, 3, 2), (4, 4, 4), (6, 2, 1)):
            spec = tk.InstanceSpec(tk.HERMITIAN, m=m, n=n, seed=SEED + m, field=field, rank_deficiency=n - k)
            _, Y, _ = tk.generate_instance(spec)
            draw = rng.standard_normal
            rec(f"build_source_projection {field} {m}x{n} r{k}",
                lambda: tk.build_source_projection(Y, draw((m - k, k)) if m > k else None,
                                                   draw((m - k, n - k)) if m > k and n > k else None))
            Z11 = np.diag(np.arange(1.0, k + 1)) / np.linalg.svd(Y, compute_uv=False)[:k]
            singular = Z11.copy()
            singular[0, 0] = 0.0
            for name, z11 in (("invertible", Z11), ("singular", singular), ("asymmetric", Z11 + np.triu(Z11, 1))):
                rec(f"build_source_hermitian {name} {field} {m}x{n} r{k}",
                    lambda: tk.build_source_hermitian(Y, z11, draw((m - k, k)) if m > k else None,
                                                      draw((m - k, n - k)) if m > k and n > k else None))
            rec(f"build_source_reflection {field} {m}x{n} r{k}",
                lambda: tk.build_source_reflection(Y, np.eye(k), np.zeros((m - k, k)) if m > k else None))

    for key, A in _audit_boundary_matrices().items():
        rec(f"verify_property invertible-hermitian on boundary {key}",
            lambda: tk.verify_property(A, tk.INVERTIBLE_HERMITIAN).to_dict())

    # square X makes the solution unique, so the solver's audit meets the
    # boundary matrix itself; thin X leaves it a completion
    Q = _orthonormal(np.random.default_rng(SEED + 11), 6, 6, "real")
    for key, A in _certificate_boundary_matrices().items():
        for prop in (tk.POSITIVE_DEFINITE, tk.INVERTIBLE_HERMITIAN):
            rec(f"verify_property {prop.label()} on certificate boundary {key}",
                lambda: tk.verify_property(A, prop).to_dict())
            for shape, X in (("square", Q), ("thin", Q[:, :3])):
                rec(f"check {prop.label()} on certificate boundary {key} {shape}",
                    lambda: tk.check(prop, X, A @ X).to_dict())
                for name, solve in _solvers(tk, prop):
                    rec(f"{name} on certificate boundary {key} {shape}", lambda: solve(X, A @ X))

    for prop in _classes(tk):
        for m in (1, 3, 6):
            A = np.eye(m) + 0.1 * rng.standard_normal((m, m))
            rec(f"verify_property {prop.label()} m={m}", lambda: tk.verify_property(A, prop).to_dict())
            rec(f"verify_property {prop.label()} identity m={m}",
                lambda: tk.verify_property(np.eye(m), prop).to_dict())
        rec(f"verify_targeting {prop.label()}",
            lambda: tk.verify_targeting(np.eye(3), np.ones((3, 2)), np.ones((3, 2))))


# -- the command line -------------------------------------------------------


def _cli(tk, rec):
    from targetkit.cli import main

    def run(argv):
        outputs = [path for flag, path in zip(argv, argv[1:]) if flag in OUTPUT_FLAGS]
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        files = {}
        for path in outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[path] = _digest(fh.read())
        return {"exit": code, "stdout": _digest(stdout.getvalue().encode()),
                "stderr": stderr.getvalue(), "files": files}

    def cli(argv):
        rec("cli " + " ".join(argv), lambda: run(argv))

    classes = _classes(tk)
    names = []
    for prop in classes:
        for field in ("real", "complex"):
            if field == "real" and prop.kind == "normal-two-point" and prop.lam.imag:
                continue
            for m, n, d in ((4, 2, 0), (6, 3, 1), (3, 3, 0)):
                if prop.kind == "normal-vector":
                    n, d = 1, 0
                stem = f"{prop.kind}-{field}-{m}x{n}-d{d}-{len(names)}"
                cli(["generate", *_property_flags(prop), "--m", str(m), "--n", str(n),
                     "--seed", str(SEED % 1000 + m), "--field", field, "--rank-deficiency", str(d),
                     "--out-x", f"{stem}-x.mtx", "--out-y", f"{stem}-y.mtx", "--out-witness", f"{stem}-w.mtx"])
                names.append(stem)
    edges = _edge_pairs()
    for key in ("zero-zero", "overflow", "tiny-block", "equal-imag", "scalar-multiple", "one-by-one",
                "overflowing-ratio", "nan-product", "huge-border", "zero-border-real", "zero-border-complex"):
        X, Y = edges[key]
        tk.write_matrix(f"edge-{key}-x.mtx", X)
        tk.write_matrix(f"edge-{key}-y.mtx", Y)
        names.append(f"edge-{key}")

    for i, stem in enumerate(names):
        x, y = f"{stem}-x.mtx", f"{stem}-y.mtx"
        for prop in classes:
            flags = _property_flags(prop)
            cli(["check", *flags, "--X", x, "--Y", y])
            out = f"sol-{i}-{prop.kind}.mtx"
            cli(["solve", *flags, "--X", x, "--Y", y, "--out", out])
            if i % 3 == 0:
                cli(["check", *flags, "--X", x, "--Y", y, "--format", "text"])
                cli(["check", *flags, "--X", x, "--Y", y, *TOLERANCE_FLAGS])
                cli(["solve", *flags, "--X", x, "--Y", y, "--format", "text", *TOLERANCE_FLAGS])
            if os.path.exists(out):
                cli(["verify", *flags, "--A", out, "--X", x, "--Y", y])
                cli(["verify", *flags, "--A", out, "--format", "text"])
                if i % 3 == 0:
                    cli(["verify", *flags, "--A", out, "--X", x, "--Y", y, *TOLERANCE_FLAGS])
        for kind in ("hermitian", "reflection", "projection", "unitary"):
            cli(["generate-source", "--property", kind, "--Y", y, "--seed", str(i), "--out-x", f"src-{i}-{kind}.mtx"])
            if i % 3 == 0:
                cli(["generate-source", "--property", kind, "--Y", y, "--seed", str(i), *TOLERANCE_FLAGS])

    for key, X, Y in _one_eigenspace_pairs():
        x, y = f"{key}-x.mtx", f"{key}-y.mtx"
        tk.write_matrix(x, X)
        tk.write_matrix(y, Y)
        props = [tk.normal_two_point(lam, mu) for lam, mu in ORIENTATIONS] + [tk.ORTHOGONAL_PROJECTION, tk.REFLECTION]
        for i, prop in enumerate(props):
            flags = _property_flags(prop)
            cli(["check", *flags, "--X", x, "--Y", y])
            cli(["solve", *flags, "--X", x, "--Y", y, "--out", f"{key}-a{i}.mtx"])

    X, Y = _tight_unitary_pair(tk)
    tk.write_matrix("tight-x.mtx", X)
    tk.write_matrix("tight-y.mtx", Y)
    cli(["solve", "--property", "unitary", "--sym-tol", "1e-16", "--X", "tight-x.mtx", "--Y", "tight-y.mtx"])
    for key, X, Y in _power_of_two_pairs(tk):
        tk.write_matrix(f"{key}-x.mtx", X)
        tk.write_matrix(f"{key}-y.mtx", Y)
        cli(["solve", "--property", "invertible-hermitian", "--X", f"{key}-x.mtx", "--Y", f"{key}-y.mtx",
             "--out", f"{key}-a.mtx"])
    for key, X, Y in _psd_singular_pairs():
        tk.write_matrix(f"{key}-x.mtx", X)
        tk.write_matrix(f"{key}-y.mtx", Y)
        cli(["solve", "--property", "psd", "--X", f"{key}-x.mtx", "--Y", f"{key}-y.mtx", "--out", f"{key}-a.mtx"])
        if os.path.exists(f"{key}-a.mtx"):
            cli(["verify", "--property", "psd", "--A", f"{key}-a.mtx", "--X", f"{key}-x.mtx", "--Y", f"{key}-y.mtx"])
    for key, A in _audit_boundary_matrices().items():
        tk.write_matrix(f"boundary-{key}.mtx", A)
        for fmt in ("json", "text"):
            cli(["verify", "--property", "invertible-hermitian", "--A", f"boundary-{key}.mtx", "--format", fmt])
    for key, A in _certificate_boundary_matrices().items():
        tk.write_matrix(f"certificate-{key}.mtx", A)
        for kind in ("pd", "invertible-hermitian"):
            for fmt in ("json", "text"):
                cli(["verify", "--property", kind, "--A", f"certificate-{key}.mtx", "--format", fmt])
    tk.write_matrix("nan-gap.mtx", NAN_GAP)
    cli(["gap", "--B", "nan-gap.mtx", "--C", "nan-gap.mtx"])

    square = [s for s in names if "3x3" in s]
    for i, stem in enumerate(square):
        cli(["gap", "--B", f"{stem}-x.mtx", "--C", f"{stem}-y.mtx", "--out", f"gap-{i}.mtx"])
        cli(["gap", "--B", f"{stem}-x.mtx", "--C", f"{stem}-y.mtx", "--format", "text"])
        cli(["gap", "--B", f"{stem}-x.mtx", "--C", f"{stem}-y.mtx", *TOLERANCE_FLAGS])

    x, y = f"{names[0]}-x.mtx", f"{names[0]}-y.mtx"
    for lam, mu in (("nan", "1"), ("inf", "1"), ("1,nan", "0"), ("1", "1"), ("1,2,3", "0"), ("abc", "0")):
        cli(["check", "--property", "normal-two-point", "--lambda", lam, "--mu", mu, "--X", x, "--Y", y])
    for argv in ([], ["check"], ["check", "--property", "diagonal", "--X", x, "--Y", y],
                 ["check", "--property", "hermitian", "--X", "missing.mtx", "--Y", y],
                 ["check", "--property", "hermitian", "--lambda", "1", "--X", x, "--Y", y],
                 ["check", "--property", "hermitian", "--X", x, "--Y", y, "--rank-tol", "-1"],
                 ["generate", "--property", "hermitian", "--m", "2", "--n", "3"],
                 # X is written before the unwritable Y path fails
                 ["generate", "--property", "hermitian", "--m", "3", "--out-x", "partial-x.mtx",
                  "--out-y", "no-such-dir/y.mtx"],
                 # the class is refused before --Y is read
                 ["generate-source", "--property", "unitary", "--Y", "missing.mtx"],
                 ["verify", "--property", "hermitian", "--A", x, "--X", x],
                 ["gap", "--B", x, "--C", x, "--frobnicate"]):
        cli(argv)
    # both seeded commands refuse a seed outside 64 unsigned bits
    for seed in ("-1", str(2**64)):
        cli(["generate", "--property", "hermitian", "--m", "3", "--seed", seed])
        cli(["generate-source", "--property", "hermitian", "--Y", y, "--seed", seed])


def _property_flags(prop):
    if prop.kind != "normal-two-point":
        return ["--property", prop.kind]

    def scalar(z):
        return f"{z.real!r},{z.imag!r}" if z.imag else repr(z.real)

    return ["--property", prop.kind, "--lambda", scalar(prop.lam), "--mu", scalar(prop.mu)]


def emit() -> None:
    import targetkit as tk

    out = sys.stdout
    rec = Recorder(out)
    # one record, so a change to the public names differs in exactly one
    rec("public surface", lambda: sorted(tk.__all__))
    with np.errstate(all="ignore"):
        _library(tk, rec)
    _cli(tk, rec)
    out.flush()


# -- the comparison ---------------------------------------------------------


def _run_tree(src: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-W", "ignore", os.path.abspath(__file__), "--emit"],
                              cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{src}: the corpus failed\n{done.stderr[-4000:]}")
    return done.stdout.splitlines()


def main(argv) -> int:
    if argv == ["--emit"]:
        emit()
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/byte_check.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    runs = []
    for src in argv:
        lines = _run_tree(src)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{src}: {len(lines)} records, digest {digest}")
        runs.append(lines)
    parent, change = runs
    keys = [[line.partition("\t")[0] for line in run] for run in runs]
    # a call whose outcome changes can add or drop the calls that follow from
    # it, such as the verify of a written solution; those keys are unmatched
    differ, unmatched = [], []
    for op, i1, i2, j1, j2 in difflib.SequenceMatcher(None, *keys, autojunk=False).get_opcodes():
        if op == "equal":
            differ += [(a, b) for a, b in zip(parent[i1:i2], change[j1:j2]) if a != b]
        else:
            unmatched += [f"only in parent: {k}" for k in keys[0][i1:i2]]
            unmatched += [f"only in change: {k}" for k in keys[1][j1:j2]]
    for line in unmatched:
        print(line)
    print(f"{len(differ)} of {len(parent)} records differ")
    if differ:
        (key, _, a), (_, _, b) = (line.partition("\t") for line in differ[0])
        print(f"first difference: {key}\n  parent: {a}\n  change: {b}")
        for line, _ in differ[1:20]:
            print(f"also differs: {line.partition(chr(9))[0]}")
        print("differing records by call and rendered field:")
        tally = Counter(label for pair in differ for label in _difference_labels(*pair))
        for (call, name), count in sorted(tally.items()):
            print(f"  {count:6d}  {call}  {name}")
    return 1 if differ or unmatched else 0


# a rendered leaf: 'key'=value, the value an array's dtype, shape and
# digest, or else running to the next separator
_LEAF = re.compile(r"'([^']+)'=(\w+\[[\d, ]*\]:\w+|[^,\[\]{}]*)")


def _leaves(rendered: str) -> list[tuple[str, str]]:
    # the leaves of one rendering, each named by its key; a condition's
    # fields also carry the condition's name, and a written file is "file"
    out, condition = [], None
    for key, value in _LEAF.findall(rendered):
        if key == "name":
            condition = value.partition(":")[2].strip("'")
        if key in ("satisfied", "deviation", "threshold") and condition:
            key = f"{condition}.{key}"
        elif "." in key:
            key = "file"
        out.append((key, value))
    return out


def _difference_labels(parent_line: str, change_line: str) -> set[tuple[str, str]]:
    """The (call, field) labels of one differing record.

    The call is the key's first word; for the command line it is the
    subcommand and the ``--property`` value.  The fields are the rendered
    leaves that differ: "(value)" for a rendering without leaves, and
    "(structure)" when the two renderings do not pair up leaf for leaf.
    """
    key, _, a = parent_line.partition("\t")
    b = change_line.partition("\t")[2]
    words = key.split()
    call = words[0]
    if call == "cli":
        call = " ".join(words[:2] + words[words.index("--property") + 1:][:1] if "--property" in words else words[:2])
    pa, pb = _leaves(a), _leaves(b)
    if not pa and not pb:
        return {(call, "(value)")}
    if [k for k, _ in pa] != [k for k, _ in pb]:
        return {(call, "(structure)")}
    return {(call, ka) for (ka, va), (_, vb) in zip(pa, pb) if va != vb} or {(call, "(structure)")}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
