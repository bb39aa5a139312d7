"""targetkit benchmark: one closed-loop client, one process, BLAS on one thread.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 35 --trace 0

The library is imported from the checkout's ``src``; the inputs come from
:mod:`workloads` and every output is judged by :mod:`checker`.  The
client sends each operation after the previous one returned and checks
it in between; only the library call is timed.  A run repeats the
workload's fixed list of operations (a round) for ``--seconds`` of wall
time, always ending on a whole round.  Each round re-draws signed row
and column permutations of every pair, which changes the bytes the
library sees but not the truth it must find.  The metrics come from
every sample of the run's complete rounds, calibrated for the machine's
speed by :class:`Reference`.  A workload's ``probe`` operations, on
which the library is known to fail, run once, untimed, and are reported
apart.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of
:mod:`spans`.  The last line of standard output is the result JSON; the
line before it holds the details (environment, input digest, the tail
percentile and its sample count, wall-clock figures, the most frequent
failure reasons, the probe's outcome).
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

# BLAS threads are pinned before numpy is first imported, here and in
# every child process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_STEPS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10  # samples beyond the reported tail percentile
WALL_CAP_S = 120.0  # start no round past this, to end within 180 s
REF_SHARE = 0.05  # time spent on the machine-speed reference, against the library's
REF_MATRICES = 64  # at most this many of the workload's matrices, evenly spaced
REF_TEXT_ENTRIES = 64  # entries of each matrix the reference writes and parses as text
# typical time of Reference.seconds() between the rounds of each workload, on
# a 2-vCPU x86_64 KVM guest (Xeon, 2.1 GHz); it only sets the scale of the
# calibrated timings, which are the wall-clock ones when the machine runs at it
REF_NOMINAL_S = {"small-mixed": 0.0066, "bordered": 0.0124, "cli-files": 0.0173}
SPAN_CAP = 20000  # spans kept for the output file

SOLVERS = {
    "unconstrained": "solve_unconstrained",
    "invertible": "solve_invertible",
    "hermitian": "solve_hermitian",
    "invertible-hermitian": "solve_invertible_hermitian",
    "positive-semidefinite": "solve_psd",
    "positive-definite": "solve_pd",
    "unitary": "solve_unitary",
    "reflection": "solve_reflection",
    "orthogonal-projection": "solve_projection",
    "complex-symmetric": "solve_complex_symmetric",
    "normal-two-point": "solve_normal_two_point",
    "normal-vector": "solve_normal_vector",
}
BUILDERS = {
    "hermitian": "build_source_hermitian",
    "reflection": "build_source_reflection",
    "orthogonal-projection": "build_source_projection",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import targetkit, targetkit.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time ``import targetkit`` in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "matrix_market_threads": sys.modules["scipy.io._fast_matrix_market"].PARALLELISM,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------ operations


class Client:
    """Turns an :class:`~workloads.Op` into a library call and judges it."""

    def __init__(self, tk):
        self.tk = tk
        import targetkit.cli

        self.cli = targetkit.cli
        self.infeasible_error = tk.InfeasibleError

    def _prop(self, pair):
        if pair.cls == "normal-two-point":
            return self.tk.normal_two_point(*pair.two_point)
        return self.tk.PropertyClass(pair.cls)

    def prepare(self, op, rng):
        """Return ``(X, Y, call)``; pairs get fresh signed permutations."""
        tk = self.tk
        if op.kind == "cli":
            argv = list(op.argv)
            cli = self.cli

            def call():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(argv)
                return code, out.getvalue(), err.getvalue()

            return None, None, call
        X, Y = op.pair.X, op.pair.Y
        if rng is not None:
            X, Y = _permute(rng, X, Y)
        if op.kind == "build_source":
            builder = getattr(tk, BUILDERS[op.cls])
            blocks = op.blocks
            return X, Y, lambda: builder(Y, **blocks)
        if op.kind == "check":
            prop = self._prop(op.pair)
            return X, Y, lambda: tk.check(prop, X, Y)
        solver = getattr(tk, SOLVERS[op.cls])
        if op.cls == "normal-two-point":
            lam, mu = op.pair.two_point
            return X, Y, lambda: solver(X, Y, lam, mu)
        return X, Y, lambda: solver(X, Y)

    def judge(self, op, X, Y, value, exc):
        if op.kind != "cli":
            return checker.judge_call(op, X, Y, value, exc, self.infeasible_error)
        if exc is not None:
            return checker.Verdict(False, f"raised {type(exc).__name__}: {exc}")
        return checker.judge_cli(op, *value)


def _permute(rng, X, Y):
    m, n = X.shape
    rows, cols = rng.permutation(m), rng.permutation(n)
    rs = rng.integers(0, 2, size=m) * 2.0 - 1.0
    cs = rng.integers(0, 2, size=n) * 2.0 - 1.0
    sign = rs[:, None] * cs[None, :]
    return X[rows][:, cols] * sign, Y[rows][:, cols] * sign


class Reference:
    """Library-free work shaped like the workload's, to gauge the machine's speed.

    Other tenants of a shared machine slow it by up to 1.7x for stretches
    of seconds to minutes, and slow the library and this work alike (thread
    CPU time slows as much as wall time).  The reference runs a full SVD of
    each of up to ``REF_MATRICES`` distinct matrices the workload sends to
    the library, and writes and parses its leading entries as text: the
    kinds of work the library does on those inputs.  The benchmark times
    it between rounds and rescales each round's latencies by the
    workload's ``REF_NOMINAL_S`` over the reference's time around the
    round, so a figure reads as it would on a machine that runs the
    reference in ``REF_NOMINAL_S``.  It calls no targetkit code, so no
    change to the library moves it.
    """

    def __init__(self, work):
        seen = {}
        for op in work.ops:
            if op.pair is not None:
                for M in (op.pair.X, op.pair.Y) if op.kind == "build_source" else (op.pair.X,):
                    seen.setdefault(id(M), M)
        matrices = list(seen.values())
        self.matrices = matrices[:: max(1, -(-len(matrices) // REF_MATRICES))]
        self.nominal = REF_NOMINAL_S[work.name]
        self.seconds()
        self.last = self.seconds()

    def factor(self, busy_s) -> float:
        """Speed factor for the round just run, which kept the library busy ``busy_s``.

        The reference runs for about ``REF_SHARE`` of that time; the factor
        uses its mean time now and its time before the round.
        """
        reps = max(1, round(REF_SHARE * busy_s / self.last))
        now = sum(self.seconds() for _ in range(reps)) / reps
        factor = 2.0 * self.nominal / (self.last + now)
        self.last = now
        return factor

    def seconds(self) -> float:
        t0 = perf_counter()
        for M in self.matrices:
            np.linalg.svd(M)
            text = " ".join(f"{v:.17g}" for v in M.ravel()[:REF_TEXT_ENTRIES].tolist())
            sum(complex(v) for v in text.split())
        return perf_counter() - t0


class Tally:
    """Latencies of the complete rounds, and every operation's verdict.

    A round's latencies are kept in one float array, so the memory the
    benchmark holds grows by only 8 bytes an operation and ``peak_rss_mb``
    stays the library's figure however many rounds a run makes.  Each
    round also keeps the machine-speed factor of :class:`Reference`; the
    metrics use the rescaled latencies, the detail line the raw ones too.
    """

    def __init__(self):
        self.rounds = []  # latencies of each complete round
        self.factors = []  # REF_NOMINAL_S over the reference's time, per round
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def record(self, op, verdict):
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            tag = f"{op.label} {op.cls}"
            if op.pair is not None:
                tag += f" {op.pair.field} {op.pair.variant} c={op.pair.scale:g}"
            self.reasons[f"{tag}: {verdict.reason[:120]}"] += 1

    def add_round(self, latencies):
        self.rounds.append(latencies)

    def samples(self, calibrated=True) -> np.ndarray:
        if not calibrated:
            return np.concatenate(self.rounds)
        return np.concatenate([r * f for r, f in zip(self.rounds, self.factors)])

    def rate(self, calibrated=True) -> float:
        """Operations per second of time spent in library calls."""
        return sum(map(len, self.rounds)) / float(self.samples(calibrated).sum())

    def median_ms_by_op(self, ops) -> dict:
        """Median calibrated latency of each kind of operation: ``{"label class": [samples, ms]}``."""
        lat = np.array(self.rounds) * np.array(self.factors)[:, None]  # rounds x operations
        columns = {}
        for i, op in enumerate(ops):
            columns.setdefault(f"{op.label} {op.cls}", []).append(i)
        return {k: [lat[:, c].size, round(1e3 * float(np.median(lat[:, c])), 4)]
                for k, c in sorted(columns.items())}


def run_round(client, ops, rng, tally, reference=None, tracer=None, refs=None):
    """Run each operation once, in order, and record the round."""
    latencies = np.empty(len(ops))
    for i, op in enumerate(ops):
        X, Y, call = client.prepare(op, rng)
        if tracer is not None:
            tracer.begin_op()
        exc = value = None
        t0 = perf_counter()
        try:
            value = call()
        except Exception as e:  # every raise is judged: expected or a failure
            exc = e
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        verdict = client.judge(op, X, Y, value, exc)
        latencies[i] = latency
        tally.record(op, verdict)
        if tracer is not None:
            report_bytes = len(value[1].encode()) if op.kind == "cli" and value else 0
            tracer.end_op(op, latency, verdict.cond, refs[i], report_bytes)
    tally.add_round(latencies)
    if reference is not None:
        tally.factors.append(reference.factor(float(latencies.sum())))


# ------------------------------------------------------------- set-up


def set_up(name, seed, workdir, client, repeats):
    """Build the workload ``repeats`` times.

    Return it, its :class:`Reference`, the calibrated seconds of each set-up
    and their wall-clock parts.
    """
    times, parts = [], []
    work = reference = None
    for _ in range(repeats):
        t_import = import_seconds()
        t0 = perf_counter()
        work = workloads.build(name, seed, workdir)
        t1 = perf_counter()
        run_round(client, work.ops[: work.warmup], None, Tally())
        t2 = perf_counter()
        wall = t_import + (t2 - t0)
        if reference is None:
            reference = Reference(work)
        times.append(wall * reference.factor(wall))
        parts.append({"import_s": t_import, "inputs_s": t1 - t0, "warmup_s": t2 - t1})
    return work, reference, times, parts


def svd_refs(work):
    """Plain full SVD time of each operation's source matrix (median of 3)."""
    cache = {}
    refs = []
    for op in work.ops:
        if op.pair is None:
            refs.append(None)
            continue
        X = op.pair.Y if op.kind == "build_source" else op.pair.X
        key = id(X)
        if key not in cache:
            samples = []
            for _ in range(3):
                t0 = perf_counter()
                np.linalg.svd(X, full_matrices=True)
                samples.append(perf_counter() - t0)
            cache[key] = statistics.median(samples)
        refs.append(cache[key])
    return refs


# ------------------------------------------------------------- metrics


def tail(latencies):
    """Highest of TAIL_STEPS with at least MIN_BEYOND samples beyond it."""
    n = len(latencies)
    for p in TAIL_STEPS:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            return p, float(np.percentile(latencies, p))
    return 50.0, float(np.percentile(latencies, 50.0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(work, tally, setup_times, rss_mb):
    samples = tally.samples()
    pct, tail_s = tail(samples)
    raw = tally.samples(calibrated=False)
    metrics = {
        "ops_per_s": (tally.rate(), "1/s"),
        "latency_p50_ms": (1e3 * float(np.median(samples)), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "correct_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "failed_share": tally.failed / tally.attempted,
        "rounds": len(tally.rounds),
        "samples": len(samples),
        "tail_percentile": pct,
        "tail_samples_beyond": int(len(samples) * (1.0 - pct / 100.0)),
        "percentiles_ms": {p: 1e3 * float(np.percentile(samples, p)) for p in TAIL_STEPS},
        "wall_clock": {"ops_per_s": tally.rate(calibrated=False),
                       "latency_p50_ms": 1e3 * float(np.median(raw)),
                       "latency_tail_ms": 1e3 * float(np.percentile(raw, pct))},
        "speed_factor": {"nominal_s": REF_NOMINAL_S[work.name],
                         "quartiles": statistics.quantiles(tally.factors, n=4)
                         if len(tally.factors) > 1 else tally.factors},
        "median_ms_by_op": tally.median_ms_by_op(work.ops),
    }
    return metrics, extra


def run_probe(client, work) -> dict:
    """Run the workload's probe once, untimed; return what failed."""
    probe = Tally()
    if work.probe:
        run_round(client, work.probe, None, probe)
    return {"attempted": probe.attempted, "failed": probe.failed,
            "failed_share": probe.failed / max(probe.attempted, 1),
            "failure_reasons": dict(probe.reasons.most_common(40))}


def write_spans(path, work, seed, kept):
    records = []
    for label, cls, spans in kept:
        records.append({"op": label, "class": cls,
                        "spans": [[s[0], s[1], s[2], s[3], round(s[4] * 1e6, 3),
                                   round(s[5] * 1e6, 3), s[6], s[7]] for s in spans]})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": work.name, "seed": seed,
                                "fields": ["id", "parent", "name", "layer", "t0_us", "t1_us",
                                           "ok", "bytes"],
                                "ops": records}) + "\n")


def measure(args, tk, workdir):
    client = Client(tk)
    repeats = 1 if args.trace else SETUP_REPEATS
    work, reference, setup_times, setup_parts = set_up(args.workload, args.seed, workdir, client,
                                                       repeats)
    rng = np.random.Generator(np.random.Philox(key=args.seed + (1 << 64))) if work.permute else None
    deadline = perf_counter() + WALL_CAP_S
    detail = {
        "workload": work.name,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": work.digest(),
        "ops_per_round": len(work.ops),
        "setup_repeats_s": setup_times,
        "setup_parts": setup_parts,
        "environment": environment(),
    }

    detail["scale_probe"] = run_probe(client, work)
    end = perf_counter() + args.seconds

    if not args.trace:
        tally = Tally()
        while not tally.rounds or perf_counter() < min(end, deadline):
            run_round(client, work.ops, rng, tally, reference)
        # read before the metrics' own copies of the latencies are made
        metrics, extra = end_to_end(work, tally, setup_times, peak_rss_mb())
        detail.update(extra)
        detail["failure_reasons"] = dict(tally.reasons.most_common(12))
        return metrics, tally, detail

    import spans

    refs = svd_refs(work)
    tracer = spans.Tracer(keep=SPAN_CAP)
    detail["wrapped_functions"] = spans.install(tracer)
    plain, traced = Tally(), Tally()
    # untraced and traced rounds alternate, so both see the same disturbances
    while not traced.rounds or perf_counter() < min(end, deadline):
        run_round(client, work.ops, rng, plain, reference)
        run_round(client, work.ops, rng, traced, reference, tracer, refs)
    write_spans(ROOT / ".perfbench_out" / f"spans-{work.name}-seed{args.seed}.json",
                work, args.seed, tracer.kept)
    metrics = tracer.totals.metrics()
    metrics["trace_overhead"] = (plain.rate() / traced.rate(), "ratio")
    totals = tracer.totals
    detail.update(
        rounds=len(plain.rounds) + len(traced.rounds),
        self_ms_per_op={k: 1e3 * v / max(totals.ops, 1) for k, v in sorted(totals.self_seconds.items())},
        calls_per_op={k: v / max(totals.ops, 1) for k, v in sorted(totals.calls.items())},
        svds_per_solve_by_class=totals.svds_per_solve(),
        bordering_by_branch=totals.bordering_by_branch(),
    )
    tally = Tally()
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.reasons += part.reasons
    detail["failure_reasons"] = dict(tally.reasons.most_common(12))
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="targetkit benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "targetkit" / "__init__.py").is_file():
        print(f"error: no targetkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scipy.io._fast_matrix_market as fmm

    import targetkit

    # scipy's Matrix Market reader and writer use every core by default; one
    # thread, like BLAS, is what threadpoolctl would set (it is not installed)
    fmm.PARALLELISM = 1

    if Path(targetkit.__file__).resolve().parent != SRC / "targetkit":
        print(f"error: imported targetkit from {targetkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        metrics, tally, detail = measure(args, targetkit, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()

    attempted = tally.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={tally.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    probe = detail["scale_probe"]
    if probe["attempted"]:
        print(f"  scale probe (c = {workloads.PROBE_SCALE:g}, infeasible pairs, untimed, "
              f"not in 'failed'): {probe['failed']} of {probe['attempted']} failed")
    if not args.trace:
        print(f"  {'failed_share':40s} {detail['failed_share']:14.6g} ratio")
        print(f"  tail = p{detail['tail_percentile']:g} over {detail['samples']} samples "
              f"from {detail['rounds']} rounds, {detail['tail_samples_beyond']} beyond it")
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
