"""Benchmark of the diracjunction CLI and library, run from a checkout's root.

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

One run measures one workload for ``--seconds`` seconds, closed loop, one
op at a time from a single client, and prints as its last stdout line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a separate traced run
reports per-layer numbers.  ``--all`` runs every workload untraced and
prints all six end-to-end metrics, failed_ratio included, by name and unit.

The code under test is ``src/`` of the checkout this file sits in: every
child interpreter gets ``PYTHONPATH=<checkout>/src`` and refuses to run if
``diracjunction`` resolves anywhere else.  Bytecode goes to
``<checkout>/.bench_build/pycache``, never under ``src/``.  A run exits 1
after printing its result if any output check failed, and exits 2 without
a result if the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import gen
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")
SETUP_REPEATS = 3
#: Percentile behind op_ms_tail, chosen so that a run of the default
#: length leaves samples beyond it (see README.md for the op counts).
TAIL_PERCENTILE = {"cli-short": 75, "cli-bulk": 75, "lib-maps": 99, "lib-oracles": 75}
#: Layers each workload is meant to stress, checked by the traced run.
INTENDED = {
    "cli-short": ("import",),
    "cli-bulk": ("scattering", "cli", "correspondence"),
    "lib-maps": ("matrix2", "boundary", "correspondence", "scattering"),
    "lib-oracles": ("deficiency",),
}
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=PYCACHE)
    return env


def spawn(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, **kwargs)


def package_file() -> str:
    """Import the package in a fresh child and return where it came from."""
    p = spawn(["-c", "import diracjunction; print(diracjunction.__file__)"], text=True)
    if p.returncode != 0:
        raise SystemExit(f"cannot import diracjunction from {SRC}:\n{p.stderr}")
    path = p.stdout.strip()
    if not os.path.abspath(path).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"diracjunction resolves to {path}, outside {SRC}")
    return path


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def provenance(args) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "diracjunction")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass

    def version(dist: str):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(workload: str, res: dict) -> dict:
    """The five end-to-end metrics; library op times are at reference speed."""
    ms = np.asarray(res["op_ns"], dtype=float) / 1e6
    values = {
        "setup_s": statistics.median(res["setups"]),
        "op_ms_p50": percentile(ms, 50),
        "op_ms_tail": percentile(ms, TAIL_PERCENTILE[workload]),
        "ops_per_s": ms.size / (ms.sum() / 1e3),
        "peak_rss_mb": res["rss_kb"] / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def as_measured(workload: str, res: dict) -> dict:
    """The timings before rescaling, for the provenance line."""
    return {k: v["value"] for k, v in end_to_end(
        workload, dict(res, op_ns=res["raw_ns"], setups=res["raw_setups"])).items()
        if k != "peak_rss_mb"}


def timed(fn):
    """Returns (fn(), nanoseconds it took)."""
    t0 = time.perf_counter_ns()
    result = fn()
    return result, time.perf_counter_ns() - t0


def reference_spawn() -> int:
    """Nanoseconds of one reference process (see speed.py)."""
    return timed(lambda: spawn(["-c", speed.SPAWN_CODE]))[1]


# ---------------------------------------------------------------------------
# CLI workloads: one process per op
# ---------------------------------------------------------------------------


def cli_setup(args) -> tuple[list[float], list[float], list[dict], int]:
    """Generate the argv list and check the tree under test, several times.

    Returns the set-up seconds at reference speed and as measured, the ops,
    and the last reference spawn.
    """
    setups, raw = [], []

    def setup():
        ops = [gen.cli_op(args.workload, args.seed, i, args.with_known_defects)
               for i in range(200)]
        package_file()
        return ops

    before = reference_spawn()
    for _ in range(SETUP_REPEATS):
        ops, dt = timed(setup)
        after = reference_spawn()
        setups.append(dt * speed.spawn_factor(before, after) / 1e9)
        raw.append(dt / 1e9)
        before = after
    return setups, raw, ops, before


def cli_ops(args, ops: list[dict]):
    """Ops in order for as long as the run lasts."""
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        yield i, ops[i] if i < len(ops) else gen.cli_op(
            args.workload, args.seed, i, args.with_known_defects)
        i += 1


def run_cli_op(op: dict) -> tuple[int, str | None]:
    """Spawn one CLI process and check its output.

    Returns (nanoseconds, failure or None).
    """
    p, dt = timed(lambda: spawn(["-m", "diracjunction.cli", *op["argv"]]))
    try:
        checks.check_cli(op, p.returncode, p.stdout.decode(), p.stderr.decode())
    except checks.CheckError as exc:
        return dt, f"{op['kind']} {' '.join(op['argv'])[:160]}: {exc}"
    return dt, None


def cli_untraced(args) -> dict:
    """One CLI process per op, each followed by a reference spawn."""
    setups, raw_setups, ops, before = cli_setup(args)
    times, raw, errors, instances = [], [], [], 0
    for _, op in cli_ops(args, ops):
        dt, error = run_cli_op(op)
        after = reference_spawn()
        times.append(dt * speed.spawn_factor(before, after))
        raw.append(dt)
        before = after
        instances += op["instances"]
        if error:
            errors.append(error)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"setups": setups, "raw_setups": raw_setups, "op_ns": times, "raw_ns": raw,
            "errors": errors, "failed": len(errors), "rss_kb": rss, "instances": instances}


def cli_traced(args) -> dict:
    """Alternate an untraced spawn and a traced child on each op."""
    _, _, ops, before = cli_setup(args)
    plain, traced, errors, summaries = [], [], [], []
    stdout_bytes = instances = rows = flagged = 0
    for i, op in cli_ops(args, ops):
        dt, error = run_cli_op(op)
        argv = [os.path.join(HERE, "child.py"), "cli", "--workload", args.workload,
                "--seed", str(args.seed), "--index", str(i)]
        argv += ["--known-defects"] if args.with_known_defects else []
        p, traced_dt = timed(lambda: spawn(argv, text=True))
        after = reference_spawn()
        f = speed.spawn_factor(before, after)
        plain.append(dt * f)
        traced.append(traced_dt * f)
        before = after
        if p.returncode != 0:
            raise SystemExit(f"traced child failed:\n{p.stderr}")
        res = json.loads(p.stdout.splitlines()[-1])
        summaries.append(res["summary"])
        stdout_bytes += res["stdout_bytes"]
        instances += res["instances"]
        rows += res["counts"].get("rows", 0)
        flagged += res["counts"].get("flagged", 0)
        if error or res["failed"]:
            errors.append(error or res["error"])
    return {"op_ns": plain, "traced_ns": traced, "errors": errors, "summaries": summaries,
            "stdout_bytes": stdout_bytes, "instances": instances, "rows": rows,
            "flagged": flagged}


# ---------------------------------------------------------------------------
# Library workloads: one fresh interpreter, one op at a time
# ---------------------------------------------------------------------------


def lib_child(args, setup_only: bool) -> tuple[float, dict | None]:
    """Start a library child; returns (seconds until ready, final result)."""
    argv = [os.path.join(HERE, "child.py"), "lib", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += (["--trace"] if args.trace else []) + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *argv], env=child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        ready = p.stdout.readline()
        setup = time.perf_counter() - t0
        rest, err = p.communicate()
    if p.returncode != 0 or not ready:
        raise SystemExit(f"library child failed:\n{err}")
    if json.loads(ready)["warmup_errors"]:
        raise SystemExit("library warm-up ops failed their checks")
    return setup, None if setup_only else json.loads(rest.splitlines()[-1])


def lib_run(args) -> dict:
    """Set up several library children; the last one runs the ops.

    A reference spawn runs before each child, so each set-up-only child sits
    between two; the last child is rescaled by the one before it alone,
    since its ops start as soon as it is ready.
    """
    package_file()
    refs = [reference_spawn()]
    raw = []
    for _ in range(SETUP_REPEATS - 1):
        raw.append(lib_child(args, setup_only=True)[0])
        refs.append(reference_spawn())
    setup, res = lib_child(args, setup_only=False)
    raw.append(setup)
    refs.append(refs[-1])
    res.update(setups=[s * speed.spawn_factor(refs[i], refs[i + 1]) for i, s in enumerate(raw)],
               raw_setups=raw, instances=len(res["op_ns"]))
    return res


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def import_layer() -> dict:
    """-X importtime of ``import diracjunction`` and bare interpreter start-up,
    each the median of three fresh spawns."""
    parsed, startup = [], []
    for _ in range(3):
        p = spawn(["-X", "importtime", "-c", "import diracjunction"], text=True)
        parsed.append(tracing.parse_importtime(p.stderr))
        startup.append(timed(lambda: spawn(["-c", "pass"]))[1] / 1e6)
    med = {k: statistics.median(d.get(k, 0.0) for d in parsed) for k in parsed[0]}
    return {
        "interp.startup_ms": statistics.median(startup),
        "import.calls": med.get("modules", 0.0),
        "import.self_ms": med.get("self_ms", 0.0),
        "import.diracjunction_ms": med.get("diracjunction_ms", 0.0),
        "import.numpy_ms": med.get("numpy_ms", 0.0),
        "import.scipy_ms": med.get("scipy_ms", 0.0),
    }


def merge(summaries: list[dict]) -> dict:
    total = {"layers": {layer: {"calls": 0, "self_ms": 0.0} for layer in tracing.LAYERS},
             "functions": {}, "linalg": {}, "quadrature_points": 0, "package_ms": 0.0}
    for s in summaries:
        for layer, v in s["layers"].items():
            total["layers"][layer]["calls"] += v["calls"]
            total["layers"][layer]["self_ms"] += v["self_ms"]
        for key in ("functions", "linalg"):
            for name, n in s[key].items():
                total[key][name] = total[key].get(name, 0) + n
        total["quadrature_points"] += s["quadrature_points"]
        total["package_ms"] += s["package_ms"]
    return total


def per_layer(args, layers: dict, n_ops: int, instances: int, rows: int, flagged: int,
              stdout_bytes: int, plain_ns, traced_ns) -> dict:
    fns = layers["functions"]
    metrics = import_layer()
    for layer, v in layers["layers"].items():
        metrics[f"{layer}.calls"] = v["calls"] / n_ops
        metrics[f"{layer}.self_ms"] = v["self_ms"] / n_ops
    untraced_ms = percentile(np.asarray(plain_ns) / 1e6, 50)
    traced_ms = percentile(np.asarray(traced_ns) / 1e6, 50)
    package_ms = layers["package_ms"] / n_ops
    if args.workload == "cli-short":
        intended = metrics["interp.startup_ms"] + metrics["import.diracjunction_ms"]
        share = intended / untraced_ms
    else:
        intended = sum(metrics[f"{layer}.self_ms"] for layer in INTENDED[args.workload])
        share = intended / package_ms if package_ms else 0.0
    metrics.update({
        "cli.stdout_bytes": stdout_bytes / n_ops,
        "boundary.validate_class_per_instance": fns.get("boundary.validate_class", 0) / instances,
        "correspondence.linalg_calls_per_instance":
            layers["linalg"].get("correspondence", 0) / instances,
        "correspondence.alpha_to_u2_per_instance":
            fns.get("correspondence.alpha_to_u2", 0) / instances,
        "scattering.rows": rows / n_ops,
        "scattering.resonance_ratio": flagged / rows if rows else 0.0,
        "deficiency.boundary_form_evals": fns.get("deficiency.boundary_form", 0) / n_ops,
        "deficiency.quadrature_points": layers["quadrature_points"] / n_ops,
        "trace.ops": n_ops,
        "trace.instances_per_op": instances / n_ops,
        "trace.package_ms": package_ms,
        "trace.untraced_op_ms": untraced_ms,
        "trace.traced_op_ms": traced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_pct": 100.0 * (traced_ms - untraced_ms) / untraced_ms,
        "trace.intended_share": share,
    })
    return metrics


PER_LAYER_UNITS = {
    "calls": "count/op", "self_ms": "ms/op", "stdout_bytes": "B/op", "rows": "count/op",
    "resonance_ratio": "ratio", "boundary_form_evals": "count/op",
    "quadrature_points": "count/op", "ops": "count", "instances_per_op": "count/op",
    "package_ms": "ms/op", "untraced_op_ms": "ms", "traced_op_ms": "ms", "overhead_ms": "ms",
    "overhead_pct": "%", "intended_share": "ratio", "startup_ms": "ms",
}


def unit_of(name: str) -> str:
    if name.startswith("import."):
        return "count" if name == "import.calls" else "ms"
    if name.endswith("_per_instance"):
        return "count/instance"
    return PER_LAYER_UNITS[name.split(".", 1)[1]]


def traced_run(args) -> tuple[dict, list[str], int, int]:
    """Returns (per-layer metrics, error messages, failed ops, attempted ops)."""
    if args.workload.startswith("cli-"):
        res = cli_traced(args)
        n = len(res["op_ns"])
        if not n:
            return {}, [], 0, 0
        metrics = per_layer(args, merge(res["summaries"]), n, res["instances"], res["rows"],
                            res["flagged"], res["stdout_bytes"], res["op_ns"], res["traced_ns"])
        return metrics, res["errors"], len(res["errors"]), n
    package_file()
    _, res = lib_child(args, setup_only=False)
    n = len(res["traced_ns"])
    if not n:
        return {}, [], 0, 0
    metrics = per_layer(args, res["summary"], n, n, n if args.workload == "lib-maps" else 0, 0,
                        0, res["op_ns"][:n], res["traced_ns"])
    return metrics, res["errors"], res["failed"] + res["traced_failed"], n


def report(workload: str, metrics: dict) -> None:
    """Human-readable per-layer table on stdout, before the result line."""
    print(f"# traced run, {workload}: per op, {metrics['trace.ops']:.0f} ops")
    for layer in ("import", *tracing.LAYERS):
        if layer == "import":
            print(f"#   import       {metrics['import.calls']:8.0f} modules "
                  f"{metrics['import.diracjunction_ms']:10.3f} ms  (numpy "
                  f"{metrics['import.numpy_ms']:.1f}, scipy {metrics['import.scipy_ms']:.1f}, "
                  f"interpreter start {metrics['interp.startup_ms']:.1f})")
            continue
        print(f"#   {layer:<14}{metrics[f'{layer}.calls']:8.1f} calls "
              f"{metrics[f'{layer}.self_ms']:10.3f} ms self")
    share = metrics["trace.intended_share"]
    verdict = "confirmed" if share > 0.5 else "NOT confirmed"
    print(f"#   intended layers {'+'.join(INTENDED[workload])}: {100 * share:.1f}% "
          f"of {'the op' if workload == 'cli-short' else 'in-package time'} -> {verdict}")
    print(f"#   tracing overhead {metrics['trace.overhead_ms']:.3f} ms per op "
          f"({metrics['trace.overhead_pct']:.1f}% of the untraced "
          f"{metrics['trace.untraced_op_ms']:.3f} ms)")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def build() -> None:
    """Fill the bytecode cache once per checkout, before anything is timed."""
    if not os.path.isdir(PYCACHE):
        os.makedirs(PYCACHE)
        package_file()
        spawn(["-m", "diracjunction.cli", "--help"])


def run_one(args) -> int:
    build()
    prov = provenance(args)
    if args.trace:
        metrics, errors, failed, attempted = traced_run(args)
        out = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        if metrics:
            report(args.workload, metrics)
    else:
        res = cli_untraced(args) if args.workload.startswith("cli-") else lib_run(args)
        errors, failed, attempted = res["errors"], res["failed"], len(res["op_ns"])
        out = end_to_end(args.workload, res) if attempted else {}
        prov.update(ops=attempted, instances=res["instances"],
                    failed_ratio=failed / max(attempted, 1))
        if attempted:
            prov["as_measured"] = as_measured(args.workload, res)
    for error in errors[:10]:
        print(f"# check failed: {error}", file=sys.stderr)
    correct = attempted >= 1 and not failed
    prov["failed"] = failed
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced, known-defect inputs included, as one table."""
    status = 0
    print(f"{'workload':<12} {'metric':<18} {'value':>14} unit")
    for workload in gen.WORKLOADS:
        argv = [os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0", "--with-known-defects"]
        p = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if len(lines) < 2 or not json.loads(lines[-1])["metrics"]:
            print(f"{workload:<12} no result (exit {p.returncode})")
            status = 1
            continue
        res, prov = json.loads(lines[-1]), json.loads(lines[-2])["provenance"]
        rows = dict(res["metrics"])
        rows["failed_ratio"] = {"value": res["failed"] / max(res["attempted"], 1),
                                "unit": "ratio"}
        for name in ("setup_s", "op_ms_p50", "op_ms_tail", "ops_per_s", "failed_ratio",
                     "peak_rss_mb"):
            label = name if name != "op_ms_tail" else f"op_ms_tail (p{prov['tail_percentile']})"
            print(f"{workload:<12} {label:<18} {rows[name]['value']:>14.6g} {rows[name]['unit']}")
        print(f"{workload:<12} {'ops':<18} {res['attempted']:>14d} ({res['failed']} failed)")
        status |= p.returncode != 0 or not res["correct"]
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--with-known-defects", action="store_true",
                        help="also draw inputs the CLI mishandles today: --mass -1, "
                             "and verify --fuzz at mass 10")
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diracjunction", "__init__.py")):
        print(f"no package to measure under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
