"""Benchmark of the luq CLI pipelines.

    python3 bench/run.py --workload gmm --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the benchmark runs the checkout's
own ``src/luq`` and exits with code 2 when it is missing.

With ``--trace 0`` every command runs as a real ``python -m luq``
subprocess, one at a time, and the last line of standard output is a JSON
object with the end-to-end metrics: set-up time (fresh ``import luq.cli``
launches), per-phase wall times as ratios to a reference launch, peak child
RSS, the epistemic AUROC and the share of commands and output checks that
succeeded.  Every time is the median over the repetitions of one run.  BLAS runs one thread, in the
children and in this process, so that the two vCPUs of a small shared
machine do not turn thread hand-offs into noise.  With ``--trace 1`` the
same pipeline runs in-process through ``luq.cli.main`` twice, untraced and
then with spans around every public luq function, and the JSON holds the
per-layer metrics.  Each run also writes a record (environment, metrics,
check results, fixed-work counts) and, when traced, a span dump under
``bench/.runs/``.
"""

from __future__ import annotations

import os

# Before numpy is imported here or in any child (children inherit os.environ).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, parse_importtime
from workloads import WORKLOADS, parse_emitted

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

# The whole run, set-up included, must end well inside three minutes.
HARD_LIMIT_S = 170.0
# set-up launches per run, one before each of the first repetitions
SETUP_LAUNCHES = 5
STARTUP_LAUNCHES = 3

# The reference launch, timed right before every timed luq command.  It runs
# no luq code, so no change to the program moves it; it moves with the
# speed of the shared machine, which drifts by 20-35 % over minutes.
REFERENCE = ["-c", "import numpy"]

END_TO_END = [
    ("setup_s", "s"), ("fit_rel", "ref"), ("score_rel", "ref"), ("wall_rel", "ref"),
    ("peak_rss_mb", "MB"), ("epi_auroc", "1"), ("success_rate", "1"),
]

# (name, unit) of every per-layer metric.  Names are <module>.<function>.<quantity>;
# the quantity is a span total (s, self_s, calls) or a counter from tracer.COUNTERS.
PER_LAYER = [
    ("startup.interpreter_s", "s"), ("startup.import_numpy_s", "s"),
    ("startup.import_scipy_s", "s"), ("startup.import_luq_s", "s"),
    ("fileio.read_features.s", "s"), ("fileio.read_features.bytes", "bytes"),
    ("fileio.write_scores_csv.s", "s"), ("fileio.write_scores_csv.bytes", "bytes"),
    ("fileio.read_model.s", "s"), ("fileio.write_model.s", "s"),
    ("fileio.read_csv_columns.s", "s"), ("metrics.auroc.s", "s"),
    ("metrics.average_precision.s", "s"), ("metrics.fpr_at_tpr.s", "s"),
    ("fileio.write_csv.s", "s"), ("fileio.write_matrix.s", "s"),
    ("linalg.pca_fit.s", "s"), ("linalg.pca_transform.s", "s"),
    ("linalg.cholesky.calls", "count"), ("linalg.cholesky.s", "s"),
    ("gmm.fit_class_conditional.s", "s"), ("gmm.em_fit.calls", "count"),
    ("gmm.em_fit.s", "s"), ("gmm.em_fit.iters", "count"),
    ("gmm.em_fit.gflop_per_s", "GFLOP/s"),
    ("gmm.gmm_log_prob.calls", "count"), ("gmm.gmm_log_prob.rows", "count"),
    ("gmm.gmm_log_prob.s", "s"),
    ("engine.score_classification.s", "s"), ("engine.score_classification.self_s", "s"),
    ("flow.flow_train.s", "s"), ("flow.flow_train.epochs", "count"),
    ("flow.flow_gradients.calls", "count"), ("flow.flow_gradients.rows", "count"),
    ("flow.flow_gradients.s", "s"), ("flow.flow_nll.s", "s"),
    ("flow.flow_log_prob.calls", "count"), ("flow.flow_log_prob.rows", "count"),
    ("flow.flow_log_prob.s", "s"),
    ("priors.log_pdf.calls", "count"), ("priors.log_pdf.s", "s"),
    ("engine.score_regression.rows", "count"), ("engine.score_regression.s", "s"),
    ("engine.score_regression.self_s", "s"),
    ("mlp.mlp_train.s", "s"), ("mlp.mlp_train.epochs", "count"),
    ("mlp.mlp_loss_gradients.calls", "count"), ("mlp.mlp_loss_gradients.s", "s"),
    ("mlp.mlp_train_many.s", "s"), ("mlp.mlp_train_many.epochs", "count"),
    ("mlp.mlp_train_many.members", "count"),
    ("mlp.latent_extract.s", "s"), ("mlp.mlp_predict.s", "s"),
    ("engine.confidence_region.calls", "count"), ("engine.confidence_region.s", "s"),
    ("toy.run_regression_study.self_s", "s"),
    ("cli.main.self_s", "s"), ("trace.overhead_s", "s"),
]

PHASES = ("fit", "score", "eval")

# Work counts that must repeat exactly for the same code and seed.
FIXED_WORK = ("gmm.em_fit.iters", "flow.flow_train.epochs", "mlp.mlp_train.epochs",
              "mlp.mlp_train_many.epochs")


@dataclass
class CommandResult:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


class Tally:
    """Attempted/failed tally over commands and output checks, plus notes
    on the uncounted checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# --- executing commands -------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], scratch: Path, deadline: float) -> CommandResult:
    """Run ``python <args>`` to completion; wall time and ru_maxrss come from
    the parent's clock and ``os.wait4``.  The child is killed at the deadline."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                         out_path.read_text(errors="replace"),
                         err_path.read_text(errors="replace"))


def subprocess_executor(wl, scratch: Path, deadline: float):
    def execute(argv):
        return run_child([*wl.launcher(), *argv], scratch, deadline)
    return execute


def inprocess_executor(wl):
    from luq import cli

    def execute(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with wl.pinned(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:  # a traceback from the program is a failed command
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return CommandResult(code, wall, rss, out.getvalue(), err.getvalue())
    return execute


# --- one repetition of a pipeline ----------------------------------------------


def run_rep(wl, rep: Path, execute, tally: Tally, phases=PHASES, emitted=None):
    """Run the workload's commands of the given phases in order, then the
    checks of those phases' outputs.  ``emitted`` carries the key=values
    printed by earlier phases of the same repetition.

    Returns (seconds per phase, max RSS, emitted key=values per phase,
    whether every command exited 0).  Failed checks are counted in
    ``tally`` only."""
    rep.mkdir(parents=True, exist_ok=True)
    times = dict.fromkeys(phases, 0.0)
    emitted = {} if emitted is None else emitted
    rss = 0.0
    for phase, make_argv in wl.steps(rep):
        if phase not in phases:
            continue
        argv = make_argv()
        res = execute(argv)
        times[phase] += res.wall
        rss = max(rss, res.rss_mb)
        ok = res.code == 0
        tally.add(ok, f"luq {' '.join(argv[:2])} exited {res.code}: {res.stderr.strip()[-400:]}")
        if not ok:
            return times, rss, emitted, False
        emitted[phase] = parse_emitted(res.stdout)
    checks = wl.check(rep, emitted) if "score" in phases else []
    if "eval" in phases:
        checks.append(wl.eval_check(rep, emitted))
    for check in checks:
        if check.counted:
            tally.add(check.ok, f"check {check.name}: {check.detail}")
        else:
            tally.notes.append(f"{check.name} {'held' if check.ok else 'missed'}: {check.detail}")
    return times, rss, emitted, True


# --- environment and fixed-work records -----------------------------------------


def files_digest(root: Path, paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def code_identity() -> dict[str, str | None]:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"git_commit": commit, "source_sha256": files_digest(SRC, SRC.rglob("*.py")),
            "benchmark_sha256": files_digest(BENCH, BENCH.glob("*.py"))}


def environment(scratch: Path, deadline: float) -> dict:
    from importlib import metadata

    import numpy as np

    probe = run_child(["-c", "import numpy, sys\n"
                             "status = open('/proc/self/status').read()\n"
                             "print([l.split()[1] for l in status.splitlines() "
                             "if l.startswith('Threads:')][0])"], scratch, deadline)
    config = np.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_after_import_numpy": int(probe.stdout.strip() or 0),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        **code_identity(),
    }


def guard_fixed_work(key: str, counts: dict[str, int], tally: Tally) -> dict:
    """Compare work counts with earlier runs of the same code, workload and
    seed (kept in bench/.runs/fixed_work.json), then add the new ones."""
    path = RUNS / "fixed_work.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    seen = store.setdefault(key, {})
    mismatched = {k: (seen[k], v) for k, v in counts.items() if k in seen and seen[k] != v}
    tally.add(not mismatched, f"fixed work differs from earlier runs: {mismatched}")
    for k, v in counts.items():
        seen.setdefault(k, v)
    path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return {"counts": counts, "mismatched": mismatched}


# --- the two kinds of run ----------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def measure(wl, work: Path, seconds: float, deadline: float, tally: Tally):
    """Untraced run: fit and score again and again, the first repetitions
    each preceded by a set-up launch, until ``seconds`` have passed (at
    least one repetition); then `luq eval` once on the last scores.

    A reference launch precedes every timed command, and each ``*_rel``
    metric is the median command time over the median reference time.
    Every command pays about 1.7 s of interpreter start and imports, so each
    one in the loop takes samples away from the others.  `luq eval` adds
    little work of its own to that start-up, so it runs once: for its check
    and the AUROC, not for a time."""
    execute = subprocess_executor(wl, work, deadline)
    ref = []

    def timed(argv):
        ref.append(run_child(REFERENCE, work, deadline).wall)
        return execute(argv)

    # untimed: the first import of a fresh checkout also writes luq's bytecode
    run_child(["-c", "import luq.cli"], work, deadline)
    setup, reps, counts = [], [], []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        if len(setup) < SETUP_LAUNCHES:
            res = run_child(["-c", "import luq.cli"], work, deadline)
            tally.add(res.code == 0, f"import luq.cli exited {res.code}")
            setup.append(res.wall)
        rep = work / f"rep{len(reps)}"
        times, rss, emitted, ok = run_rep(wl, rep, timed, tally, ("fit", "score"))
        reps.append((times, rss))
        if not ok:
            break
        counts.append(wl.fixed_work(emitted))
        now = time.monotonic()
        if now - start + (now - rep_start) > seconds or now + 2 * (now - rep_start) > deadline:
            break
    tally.add(all(c == counts[0] for c in counts),
              f"fixed work differs between repetitions: {counts}")
    auroc, eval_s = 0.0, None
    if ok:
        times, _, emitted, ok = run_rep(wl, rep, execute, tally, ("eval",), emitted)
        eval_s = times["eval"]
        auroc = wl.epi_auroc(emitted) if ok else 0.0
    walls = {
        "fit_s": median([t["fit"] for t, _ in reps]),
        "score_s": median([t["score"] for t, _ in reps]),
        "wall_s": median([sum(t.values()) for t, _ in reps]),
        "reference_s": median(ref),
    }
    metrics = {
        "setup_s": median(setup),
        "fit_rel": walls["fit_s"] / walls["reference_s"],
        "score_rel": walls["score_s"] / walls["reference_s"],
        "wall_rel": walls["wall_s"] / walls["reference_s"],
        "peak_rss_mb": median([r for _, r in reps]),
        "epi_auroc": auroc,
    }
    samples = {"walls": walls, "setup_s": setup, "reference_s": ref,
               "reps": [{"phases": t, "rss_mb": r} for t, r in reps], "eval_s": eval_s}
    print(f"samples: {len(setup)} set-up launches, {len(reps)} fit+score repetitions, "
          f"{len(ref)} reference launches")
    for name, value in walls.items():
        print(f"{name} = {value:.6g} s (median wall time)")
    return metrics, samples, (counts[0] if counts else {})


def startup_breakdown(work: Path, deadline: float, tally: Tally) -> dict[str, float]:
    bare, parsed = [], []
    for _ in range(STARTUP_LAUNCHES):
        res = run_child(["-c", "pass"], work, deadline)
        tally.add(res.code == 0, "bare interpreter launch failed")
        bare.append(res.wall)
        res = run_child(["-X", "importtime", "-c", "import luq.cli"], work, deadline)
        tally.add(res.code == 0, "import luq.cli with -X importtime failed")
        parsed.append(parse_importtime(res.stderr))
    return {
        "startup.interpreter_s": median(bare),
        "startup.import_numpy_s": median([p["numpy"] for p in parsed]),
        "startup.import_scipy_s": median([p["scipy"] for p in parsed]),
        "startup.import_luq_s": median([p["luq"] for p in parsed]),
    }


def traced(wl, work: Path, deadline: float, tally: Tally, run_id: str):
    """In-process run: the pipeline once untraced, once traced."""
    metrics = startup_breakdown(work, deadline, tally)
    execute = inprocess_executor(wl)
    start = time.perf_counter()
    run_rep(wl, work / "untraced", execute, tally)
    untraced_s = time.perf_counter() - start

    tracer = Tracer(run_id)
    tracer.install()
    try:
        start = time.perf_counter()
        run_rep(wl, work / "traced", execute, tally)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    RUNS.mkdir(exist_ok=True)
    tracer.dump(RUNS / f"spans-{run_id}.json")

    for name, _ in PER_LAYER:
        if name in metrics:
            continue
        if name == "trace.overhead_s":
            metrics[name] = traced_s - untraced_s
        elif name == "gmm.em_fit.gflop_per_s":
            busy = tracer.value("gmm.em_fit", "s")
            metrics[name] = tracer.value("gmm.em_fit", "flops") / busy / 1e9 if busy else 0.0
        else:
            func, quantity = name.rsplit(".", 1)
            metrics[name] = tracer.value(func, quantity)
    counts = {k: int(metrics[k]) for k in FIXED_WORK}
    return metrics, {"untraced_s": untraced_s, "traced_s": traced_s}, counts


# --- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "luq" / "__init__.py").is_file():
        print(f"error: no luq sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / ".work" / run_id
    if work.exists():
        shutil.rmtree(work)
    (work / "inputs").mkdir(parents=True)
    RUNS.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, args.size)
    wl.generate(work / "inputs")
    tally = Tally()
    env = environment(work, deadline)
    if args.trace:
        metrics, detail, counts = traced(wl, work, deadline, tally, run_id)
        units = dict(PER_LAYER)
    else:
        metrics, detail, counts = measure(wl, work, args.seconds, deadline, tally)
        units = dict(END_TO_END)
    code = f"{env['source_sha256'][:16]}+{env['benchmark_sha256'][:16]}"
    fixed = guard_fixed_work(f"{code}/{args.workload}/{args.seed}/{args.size}", counts, tally)
    if not args.trace:
        metrics["success_rate"] = (tally.attempted - tally.failed) / tally.attempted

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "metrics": metrics, "detail": detail, "fixed_work": fixed,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "notes": tally.notes,
    }
    (RUNS / f"{run_id}.json").write_text(json.dumps(record, indent=1))

    for failure in tally.failures:
        print(f"FAILED {failure}")
    for note in dict.fromkeys(tally.notes):
        print(f"NOTE {note}")
    print("environment " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
