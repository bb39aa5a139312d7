"""Seeded inputs for the four benchmark workloads.

Everything here is the benchmark's own numpy code: a change to the
library cannot change what the workloads feed it.  One
``Generator(Philox(key=seed))`` draws every matrix of a workload in a
fixed order, so the same seed gives bitwise-identical inputs, and
:meth:`Workload.digest` fingerprints them so two runs can prove they ran the same
inputs.  The *structure* of a workload (classes, shapes, ranks, which
pairs are infeasible or rescaled, the order of operations) does not
depend on the seed; only the entries do.

Every pair carries its truth by construction.  A feasible pair is
``(X, A X)`` for a witness ``A`` of the class.  An infeasible pair
violates one of the class's necessary conditions by at least 0.1 in the
benchmark's own relative measure (:mod:`checker`), which is confirmed
here when the pair is drawn.

Why these workloads:

* ``small-mixed``: m in {4, 8, 16}.  A solve costs 0.2-1.5 ms while one
  SVD of X costs 0.03-0.09 ms, so coercion, dispatch and the audit's
  Python overhead dominate.  Sharing factorizations should barely move
  it.  Holds the c = 1e-6 and c = 1e6 rescaled slices, and runs every
  class, so its traced run gives the SVDs per solve of each class.  Its
  c = 1e-6 *infeasible* pairs are its ``probe``: at the seed the library
  calls them feasible or fails its own audit on them (ROADMAP item 1),
  so they run once a run, untimed, and their failures are reported
  apart from the timed operations, which must all succeed.
* ``bordered``: ``solve_invertible_hermitian`` at m in {64, 96, 128},
  n = m/2, where the bordering-scalar search scores candidates with
  full m x m SVDs, interleaved with the sibling classes (hermitian, psd,
  pd) that build the same bordered matrix without a search.  The search
  makes it LAPACK-bound, and the siblings' SVDs of X are where sharing
  factorizations would show.  Each m has one invertible-hermitian
  witness with ``|L|_2 > |H|_2`` in the solver's blocks and one with
  ``|L|_2 < |H|_2`` (see :func:`_inv_herm_pair`).  The search scores
  4(r+1) candidates on the first branch.  On the second, half of them
  equal the other half in exact arithmetic, and the solver scores a
  repeated value once only when it is bitwise equal, so it scores
  between 2(r+1) and 4(r+1), depending on the input's last bits.
  small-mixed puts its real invertible-hermitian pairs on the first
  branch and its complex ones on the second.  m = 512 is left out: it
  takes about 30 s per solve.
* ``cli-files``: ``targetkit.cli.main`` (``check``, ``solve --out``,
  ``verify``, ``generate``) over Matrix Market files written at set-up,
  m in {32, 64}, real and complex.  Report rendering and Matrix Market
  I/O dominate, so the ``cli`` and ``mmio`` layers are measured here.

A LAPACK-bound workload at m = 256 is left out: on a shared 2-vCPU
machine its runs spread by more than the benchmark's bounds, and its
runs would shorten the others'.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checker
import mmfile

CLASSES = (
    "unconstrained",
    "invertible",
    "hermitian",
    "invertible-hermitian",
    "positive-semidefinite",
    "positive-definite",
    "unitary",
    "reflection",
    "orthogonal-projection",
    "complex-symmetric",
    "normal-two-point",
    "normal-vector",
)

# admissible eigenvalues of the normal-two-point class, per field
TWO_POINT = {"real": (2.0, -1.0), "complex": (1.0 + 1.0j, -1.0)}

# the k-th pair of one (class, variant) gets SCALE_CYCLE[k % 8] as its scale
SCALE_CYCLE = (1.0, 1.0, 1.0, 1e-6, 1.0, 1.0, 1.0, 1e6)

MIN_VIOLATION = 0.1

PROBE_SCALE = 1e-6


@dataclass(frozen=True)
class Pair:
    cls: str
    field: str
    X: np.ndarray
    Y: np.ndarray
    feasible: bool
    variant: str  # "full", "rankdef" or "infeasible"
    scale: float = 1.0
    branch: str = ""  # invertible-hermitian only: which norm of the solver's blocks is larger

    @property
    def two_point(self):
        return TWO_POINT[self.field]


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a library call and its expected outcome.

    ``kind`` is ``check`` or ``solve`` on ``pair``; ``build_source`` of
    class ``cls`` for target ``pair.Y`` from ``blocks``; or ``cli`` with
    the argument vector ``argv`` for subcommand ``command``.
    """

    kind: str
    cls: str
    pair: Pair | None = None
    blocks: dict | None = None
    argv: tuple = ()
    command: str = ""
    files: dict = field(default_factory=dict)
    expect_feasible: bool = True

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return f"cli-{self.command}"
        return self.kind


@dataclass
class Workload:
    name: str
    ops: list
    warmup: int  # number of leading operations run once at set-up
    permute: bool  # freshen inputs each round with signed permutations
    # operations on which the library is known to fail (ROADMAP item 1): run
    # once a run, untimed, and reported apart from the timed operations
    probe: list = field(default_factory=list)

    def digest(self) -> str:
        """Fingerprint of every input array and operation descriptor."""
        h = hashlib.sha256()
        for op in self.ops + self.probe:
            argv = [Path(a).name for a in op.argv]  # files live in a per-run directory
            h.update(repr((op.kind, op.cls, op.command, argv, op.expect_feasible)).encode())
            arrays = []
            if op.pair is not None:
                arrays += [op.pair.X, op.pair.Y]
            if op.blocks:
                arrays += [op.blocks[k] for k in sorted(op.blocks)]
            for a in arrays:
                h.update(repr((a.shape, a.dtype.str)).encode())
                h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------- draws


def _gauss(rng, shape, fld):
    G = rng.standard_normal(shape)
    if fld == "complex":
        G = (G + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return G


def _unitary(rng, m, fld):
    Q, R = np.linalg.qr(_gauss(rng, (m, m), fld))
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def _hermitian(rng, m, fld):
    G = _gauss(rng, (m, m), fld)
    return (G + G.conj().T) / 2


def _eig_spread(rng, k, lo, hi, signed):
    w = rng.uniform(lo, hi, size=k)
    if signed:
        w = w * rng.choice([-1.0, 1.0], size=k)
    return w


def _from_spectrum(U, w):
    return (U * w) @ U.conj().T


def _projector(rng, m, fld, k):
    Q1 = _unitary(rng, m, fld)[:, :k]
    return Q1 @ Q1.conj().T


def _source(rng, m, n, k, fld):
    """X = Q1 diag(d) Q2* of rank k, singular values within e^(+-0.35)."""
    Q1 = _unitary(rng, m, fld)[:, :k]
    Q2 = _unitary(rng, n, fld)
    d = np.exp(rng.uniform(-0.35, 0.35, size=k))
    X = (Q1 * d) @ Q2[:, :k].conj().T
    return X, Q2[:, k:]


def _witness(rng, cls, m, fld):
    if cls == "unconstrained":
        return _gauss(rng, (m, m), fld)
    if cls == "invertible":
        s = _eig_spread(rng, m, 0.5, 2.0, False)
        return (_unitary(rng, m, fld) * s) @ _unitary(rng, m, fld).conj().T
    if cls == "hermitian":
        return _hermitian(rng, m, fld)
    if cls == "positive-semidefinite":
        G = _gauss(rng, (m, m), fld)
        return G.conj().T @ G / m
    if cls == "positive-definite":
        G = _gauss(rng, (m, m), fld)
        return G.conj().T @ G / m + 0.5 * np.eye(m)
    if cls == "unitary":
        return _unitary(rng, m, fld)
    if cls == "reflection":
        k = int(rng.integers(1, m))
        return np.eye(m) - 2.0 * _projector(rng, m, fld, k)
    if cls == "orthogonal-projection":
        return _projector(rng, m, fld, int(rng.integers(1, m)))
    if cls == "complex-symmetric":
        G = _gauss(rng, (m, m), fld)
        return (G + G.T) / 2
    if cls == "normal-two-point":
        lam, mu = TWO_POINT[fld]
        P = _projector(rng, m, fld, int(rng.integers(1, m)))
        return lam * P + mu * (np.eye(m) - P)
    if cls == "normal-vector":
        return float(np.exp(rng.uniform(-1.0, 1.0))) * _unitary(rng, m, fld)
    raise ValueError(f"unknown class {cls!r}")


def _bad_witness(rng, cls, m, fld):
    """A matrix whose image of a generic X breaks a condition of ``cls``."""
    if cls in ("hermitian", "invertible-hermitian"):
        G = _gauss(rng, (m, m), fld)
        return _hermitian(rng, m, fld) / 2 + (G - G.conj().T) / 2
    if cls in ("positive-semidefinite", "positive-definite"):
        return _from_spectrum(_unitary(rng, m, fld), _eig_spread(rng, m, 0.5, 1.5, True))
    if cls == "unitary":
        return 1.4 * _unitary(rng, m, fld)
    if cls == "reflection":
        return _unitary(rng, m, fld)
    if cls == "orthogonal-projection":
        return 1.5 * _projector(rng, m, fld, int(rng.integers(1, m)))
    if cls == "complex-symmetric":
        G = _gauss(rng, (m, m), fld)
        return (G + G.T) / 4 + (G - G.T) / 2
    if cls == "normal-two-point":
        lam, mu = TWO_POINT[fld]
        nu = (lam + mu) / 2
        U = _unitary(rng, m, fld)
        k = m // 3
        w = np.array([lam] * k + [mu] * k + [nu] * (m - 2 * k))
        return _from_spectrum(U, w)
    raise ValueError(f"no infeasible construction for {cls!r}")


def _infeasible(rng, cls, m, n, fld):
    if cls == "unconstrained":
        # rank-deficient X, and Y puts mass on a null vector of X
        X, null = _source(rng, m, n, n - 1, fld)
        Y = _gauss(rng, (m, m), fld) @ X
        u = _gauss(rng, (m, 1), fld)
        u = u / np.linalg.norm(u)
        return X, Y + np.linalg.norm(Y) * u @ null[:, :1].conj().T
    if cls == "invertible":
        # full-rank X, rank Y = n - 1
        X, _ = _source(rng, m, n, n, fld)
        Y = _witness(rng, "invertible", m, fld) @ X
        v = _gauss(rng, (n, 1), fld)
        v = v / np.linalg.norm(v)
        return X, Y - (Y @ v) @ v.conj().T
    X, _ = _source(rng, m, n, n, fld)
    return X, _bad_witness(rng, cls, m, fld) @ X


# spectral norm of the witness's L block on each bordering branch; |H|_2 is in [0.5, 1]
BRANCH_NORM_L = {"|L|>|H|": 2.0, "|L|<|H|": 0.25}


def draw_pair(rng, cls, m, n, fld, variant, scale=1.0, branch="|L|>|H|") -> Pair:
    if variant == "infeasible":
        for _ in range(50):
            X, Y = _infeasible(rng, cls, m, n, fld)
            if checker.violation(cls, X, Y, TWO_POINT[fld]) >= MIN_VIOLATION:
                break
        else:
            raise RuntimeError(f"could not draw an infeasible {cls} pair at m={m}, n={n}")
        feasible = False
        branch = ""
    else:
        k = min(m, n)
        if variant == "rankdef":
            k -= max(1, k // 8)
        if cls == "invertible-hermitian":
            X, Y = _inv_herm_pair(rng, m, n, k, fld, BRANCH_NORM_L[branch])
        else:
            X, _ = _source(rng, m, n, k, fld)
            Y = _witness(rng, cls, m, fld) @ X
            branch = ""
        feasible = True
    return Pair(cls, fld, scale * X, scale * Y, feasible, variant, scale, branch)


def _inv_herm_pair(rng, m, n, k, fld, norm_l):
    """Invertible Hermitian witness with ``|L|_2 = norm_l`` and ``|H|_2`` in [0.5, 1].

    With X = Q1 D Q2* of rank k and A = Q [[H0, L0*], [L0, C0]] Q*, the
    solver's blocks H and L are unitary rotations of H0 and L0, so their
    spectral norms are fixed by construction.  Which of the two is larger
    picks the branch of the bordering-scalar search, and so the number of
    candidates it scores and the SVDs a solve runs, for every seed and
    permutation.  C0 = L0 H0^-1 L0* + D0 makes the Schur complement D0,
    so A is invertible.
    """
    Q = _unitary(rng, m, fld)
    d = np.exp(rng.uniform(-0.35, 0.35, size=k))
    X = (Q[:, :k] * d) @ _unitary(rng, n, fld)[:, :k].conj().T
    H0 = _from_spectrum(_unitary(rng, k, fld), _eig_spread(rng, k, 0.5, 1.0, True))
    M = H0
    if k < m:
        L0 = _gauss(rng, (m - k, k), fld)
        L0 *= norm_l / np.linalg.svd(L0, compute_uv=False)[0]
        D0 = _from_spectrum(_unitary(rng, m - k, fld), _eig_spread(rng, m - k, 0.5, 1.0, True))
        C0 = L0 @ np.linalg.solve(H0, L0.conj().T) + D0
        M = np.block([[H0, L0.conj().T], [L0, (C0 + C0.conj().T) / 2]])
    return X, Q @ M @ Q.conj().T @ X


def _interleaved(ops):
    """The operations in one fixed shuffled order, the same for every seed."""
    order = np.random.Generator(np.random.Philox(key=0)).permutation(len(ops))
    return [ops[i] for i in order]


def _admits_infeasible(cls, n) -> bool:
    return n >= 2 and cls != "normal-vector"


def _shapes(cls, m):
    return (1,) if cls == "normal-vector" else (1, m // 2, m)


def _solve_ops(pairs):
    ops = []
    for p in pairs:
        ops.append(Op("check", p.cls, pair=p, expect_feasible=p.feasible))
        ops.append(Op("solve", p.cls, pair=p, expect_feasible=p.feasible))
    return ops


def _source_blocks(rng, cls, Y, fld):
    """Free blocks for ``build_source_<cls>`` in the frame of Y's SVD."""
    m, n = Y.shape
    s = np.linalg.svd(Y, compute_uv=False)
    r = int(np.count_nonzero(s > 1e-12 * s[0] * max(m, n)))
    sigma = s[:r]
    blocks = {}
    if cls == "hermitian":
        blocks["Z11"] = _hermitian(rng, r, fld) / sigma[:, None]
        if m > r:
            blocks["Z21"] = _gauss(rng, (m - r, r), fld)
            if n > r:
                blocks["Z22"] = _gauss(rng, (m - r, n - r), fld)
    elif cls == "reflection":
        t = min(r, m - r)
        U = _unitary(rng, r, fld)
        cosines = rng.choice([-1.0, 1.0], size=r)
        cosines[:t] = np.cos(rng.uniform(0.0, np.pi, size=t))
        blocks["U11"] = _from_spectrum(U, cosines)
        if m > r:
            sines = np.sqrt(1.0 - cosines[:t] ** 2)
            W = _unitary(rng, m - r, fld)[:, :t]
            blocks["U21"] = (W * sines) @ U[:, :t].conj().T
    else:
        if m > r:
            blocks["Z21"] = _gauss(rng, (m - r, r), fld)
            if n > r:
                blocks["Z22"] = _gauss(rng, (m - r, n - r), fld)
    return blocks


BRANCHES = tuple(BRANCH_NORM_L)
SOURCE_CLASSES = ("hermitian", "reflection", "orthogonal-projection")


def small_mixed(rng):
    counters = {}
    pairs = []
    for cls in CLASSES:
        for fld in ("real", "complex"):
            for m in (4, 8, 16):
                for n in _shapes(cls, m):
                    variants = ["full", "rankdef" if min(m, n) >= 2 else "full"]
                    if _admits_infeasible(cls, n):
                        variants.append("infeasible")
                    for variant in variants:
                        k = counters.get((cls, variant), 0)
                        counters[(cls, variant)] = k + 1
                        scale = SCALE_CYCLE[k % len(SCALE_CYCLE)]
                        # the same invertible-hermitian shapes on both bordering branches
                        branch = BRANCHES[fld == "complex"]
                        pairs.append(draw_pair(rng, cls, m, n, fld, variant, scale, branch))
    ops = _solve_ops(pairs)
    for cls in SOURCE_CLASSES:
        for fld in ("real", "complex"):
            for m in (8, 16):
                # the target of a feasible pair of the same class, rank m/2
                target = draw_pair(rng, cls, m, m // 2, fld, "full").Y
                ops.append(
                    Op("build_source", cls, pair=Pair(cls, fld, target, target, True, "full"),
                       blocks=_source_blocks(rng, cls, target, fld))
                )
    # the c = 1e-6 infeasible pairs are the scale probe: with the library's
    # max(1, norm) tolerance floor its checks call them feasible
    probe = [op.pair.scale == PROBE_SCALE and not op.pair.feasible for op in ops]
    timed = [op for op, p in zip(ops, probe) if not p]
    return Workload("small-mixed", _interleaved(timed), warmup=200, permute=True,
                    probe=[op for op, p in zip(ops, probe) if p])


def bordered(rng):
    ops = []
    for m in (64, 96, 128):
        n = m // 2
        for branch in BRANCHES:
            p = draw_pair(rng, "invertible-hermitian", m, n, "real", "full", branch=branch)
            ops.append(Op("solve", p.cls, pair=p))
        for cls in ("hermitian", "positive-semidefinite", "positive-definite"):
            p = draw_pair(rng, cls, m, n, "real", "full")
            ops.append(Op("solve", cls, pair=p))
    return Workload("bordered", _interleaved(ops), warmup=5, permute=True)


CLI_SOLVE = ("unconstrained", "invertible", "hermitian", "positive-semidefinite", "unitary",
             "reflection", "orthogonal-projection", "complex-symmetric")
CLI_VERIFY = ("hermitian", "unitary")
CLI_CHECK = ("positive-semidefinite", "complex-symmetric")
CLI_INFEASIBLE = ("positive-semidefinite", "unitary")
CLI_GENERATE = ("unitary", "complex-symmetric")


def cli_files(rng, workdir: Path):
    """CLI runs over files written here; ``verify`` reads what ``solve`` wrote.

    Solves are most of the operations, so the median falls among them:
    report rendering and Matrix Market writes are what this workload is
    for, and the cheap ``check`` and ``verify`` runs swing more with the
    machine's load.
    """
    ops = []

    def write(name, matrix):
        path = workdir / f"{name}.mtx"
        mmfile.write(path, matrix)
        return str(path)

    for fld in ("real", "complex"):
        for i, m in enumerate((32, 64)):
            n = m // 2
            tag = f"{fld}{m}"
            for cls in CLI_SOLVE:
                p = draw_pair(rng, cls, m, n, fld, "full")
                x, y = write(f"{tag}-{cls}-X", p.X), write(f"{tag}-{cls}-Y", p.Y)
                out = str(workdir / f"{tag}-{cls}-A.mtx")
                files = {"X": x, "Y": y, "A": out}
                common = ("--property", cls, "--X", x, "--Y", y)
                ops.append(Op("cli", cls, pair=p, command="solve",
                              argv=("solve",) + common + ("--out", out), files=files))
                if cls in CLI_VERIFY:
                    ops.append(Op("cli", cls, pair=p, command="verify", files=files,
                                  argv=("verify", "--property", cls, "--A", out, "--X", x, "--Y", y)))
                if cls in CLI_CHECK:
                    ops.append(Op("cli", cls, pair=p, command="check", argv=("check",) + common))
            cls = CLI_INFEASIBLE[i]
            p = draw_pair(rng, cls, m, n, fld, "infeasible")
            x, y = write(f"{tag}-{cls}-bad-X", p.X), write(f"{tag}-{cls}-bad-Y", p.Y)
            common = ("--property", cls, "--X", x, "--Y", y)
            for command in ("check", "solve"):
                ops.append(Op("cli", cls, pair=p, command=command, argv=(command,) + common,
                              expect_feasible=False))
            cls = CLI_GENERATE[i]
            seed = int(rng.integers(0, 2**31))
            gx, gy = str(workdir / f"{tag}-gen-X.mtx"), str(workdir / f"{tag}-gen-Y.mtx")
            ops.append(Op("cli", cls, command="generate", files={"X": gx, "Y": gy},
                          argv=("generate", "--property", cls, "--m", str(m), "--n", str(n),
                                "--seed", str(seed), "--field", fld, "--out-x", gx, "--out-y", gy)))
    return Workload("cli-files", ops, warmup=15, permute=False)


NAMES = ("small-mixed", "bordered", "cli-files")


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = np.random.Generator(np.random.Philox(key=seed))
    if name == "small-mixed":
        return small_mixed(rng)
    if name == "bordered":
        return bordered(rng)
    if name == "cli-files":
        return cli_files(rng, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
