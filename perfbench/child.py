"""Fresh-interpreter side of the benchmark.

``child.py lib --workload lib-maps --seed N --seconds S [--trace] [--setup-only]``
    imports the package cold, warms up, prints ``{"ready": ...}``, then runs
    seeded library ops one at a time until S seconds have passed.  With
    ``--trace`` it runs the ops untraced for half the time and then the same
    ops again with spans, so the difference is the tracing overhead.

``child.py cli --workload cli-short --seed N --index I [--known-defects]``
    runs one CLI op in-process with spans: installs the wrappers, then calls
    ``diracjunction.cli.main(argv)`` with stdout and stderr captured.

Each mode prints one JSON object per line on stdout; the last one is the
result.  The package is imported from ``PYTHONPATH``; the interpreter
refuses to run if that copy is not the one in this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

import checks
import gen
import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Ops between two reference-kernel probes span about this long.
WINDOW_S = 0.1


def import_package():
    import diracjunction

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(diracjunction.__file__).startswith(src):
        raise SystemExit(f"diracjunction imported from {diracjunction.__file__}, not {src}")
    return diracjunction


def say(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# Library ops: inputs are built before the clock starts, checks run after
# ---------------------------------------------------------------------------


def maps_prepare(dj, x: dict):
    return (x["u"], x["m"], x["E"])


def maps_run(dj, args):
    u, m, E = args
    bc = dj.classify(u, m)
    if isinstance(bc, dj.Transmitting):
        a = bc.alpha
        q = dj.alpha_to_u2(a, m)
        f = dj.alpha_to_bd(a)
        return (bc, q, dj.compose(q), f, dj.bd_to_alpha(f), dj.u2_to_alpha(q, m),
                dj.scatter_alpha(a, E, m))
    return (bc, dj.rho_to_diagonal_u2(bc.rho, m), dj.scatter_rho(bc.rho, E, m))


def _one_row(res, m: float) -> dict:
    return {
        "cols": {
            "E": np.array([res.E]), "k": np.array([res.k]), "lambda": np.array([res.lam]),
            "re_r": np.array([res.r.real]), "im_r": np.array([res.r.imag]),
            "re_t": np.array([res.t.real]), "im_t": np.array([res.t.imag]),
            "R": np.array([res.R]), "T": np.array([res.T]),
        },
        "flags": [res.flag or ""],
        "spec": {"m": m, "steps": 1, "emin": res.E, "emax": res.E, "face": "left"},
    }


def maps_check(dj, x: dict, out) -> None:
    u, m, E = x["u"], x["m"], x["E"]
    bc = out[0]
    row = _one_row(out[-1], m)
    checks.close(out[-1].E, E, "scattering energy", tol=0.0)
    if abs(u[0, 1]) <= checks.TOL and abs(u[1, 0]) <= checks.TOL:
        checks.require(isinstance(bc, dj.Separating), "diagonal unitary not separating")
        rho = bc.rho
        checks.faces_ok(rho.rho_plus, rho.rho_minus, u[0, 0], u[1, 1], m)
        checks.close(out[1], [u[0, 0], u[1, 1]], "rho -> diagonal unitary round trip")
        rp = "inf" if math.isinf(rho.rho_plus) else rho.rho_plus
        rm = "inf" if math.isinf(rho.rho_minus) else rho.rho_minus
        row["spec"]["rho"] = [rp, rm]
    else:
        checks.require(isinstance(bc, dj.Transmitting), "non-diagonal unitary not transmitting")
        _, q, u2, f, a_bd, a_u2 = out[:6]
        a = bc.alpha.as_tuple()
        checks.class_ok(a)
        checks.relation_ok(a, u, m)
        checks.gamma_ok([q.g1, q.g2, q.g3])
        checks.close(u2, u, "alpha -> U round trip")
        checks.bd_ok(f.theta, f.bs(), a)
        scale = max(abs(z) for z in a)
        checks.close(a_bd.as_tuple(), a, "b-form round trip", scale=scale)
        checks.close(a_u2.as_tuple(), a, "U -> alpha round trip", scale=scale)
        row["spec"]["alpha"] = [[z.real, z.imag] for z in a]
    checks.rows_ok(row["cols"], row["flags"], row["spec"])


def oracles_prepare(dj, x: dict):
    from diracjunction.deficiency import SmoothBump

    m, lam = x["m"], x["lam"]
    left, right = dj.Island.LEFT, dj.Island.RIGHT
    plus, minus = dj.Sign.PLUS, dj.Sign.MINUS
    psi = list(zip(x["psi"], [
        dj.DeficiencyFunction(left, plus, m, lam), dj.DeficiencyFunction(right, minus, m, lam),
        SmoothBump(left, -lam - 2.0, 0.8, (1.0, -1j), lam=lam)]))
    phi = list(zip(x["phi"], [
        dj.DeficiencyFunction(right, plus, m, lam), dj.DeficiencyFunction(left, minus, m, lam),
        SmoothBump(right, lam + 2.0, 0.8, (1j, 1.0), lam=lam)]))
    return {
        "m": m, "lam": lam,
        "alpha": dj.AlphaBC(*x["alpha"]),
        "rho": dj.RhoBC(rho_plus=x["rho"][0], rho_minus=x["rho"][1]),
        "sign": plus if x["sign"] == "plus" else minus,
        "psi": psi, "phi": phi, "u": x["u"], "diag": x["diag"], "seeds": x["verify_seeds"],
    }


def oracles_run(dj, p):
    m, lam = p["m"], p["lam"]
    return (
        dj.verify_selfadjoint_domain(dj.Transmitting(p["alpha"]), samples=100, seed=p["seeds"][0]),
        dj.verify_selfadjoint_domain(dj.Separating(p["rho"]), samples=100, seed=p["seeds"][1]),
        dj.gram_matrix(p["sign"], m, lam),
        dj.boundary_form_quadrature(p["psi"], p["phi"], m, lam),
        dj.oracle_alpha_from_u2(p["u"], m, lam),
        dj.oracle_rho_from_diagonal(*p["diag"], m, lam),
        dj.compare_closed_form(p["alpha"], m),
    )


def oracles_check(dj, x: dict, out) -> None:
    m, lam = x["m"], x["lam"]
    sa_t, sa_s, gram, form, v, rho, cmp = out
    for sa in (sa_t, sa_s):
        checks.require(sa.passed and sa.samples == 100, f"self-adjointness not certified: {sa}")
    s = math.hypot(1.0, m)
    checks.close(np.diag(gram), [math.exp(-4.0 * s * lam)] * 2, "Gram diagonal", tol=1e-8)
    checks.close([gram[0, 1], gram[1, 0]], [0.0, 0.0], "Gram off-diagonal", tol=0.0)
    # Green identity: the quadrature equals the boundary form of the traces,
    # computed here from the eigenfunction spinors (the bumps vanish there)
    k = checks.mu(m)
    e = math.exp(-s * lam)
    traces = {  # (face index 0 = -L, 1 = +L, spinor)
        ("left", "plus"): (0, np.array([1.0, -k])),
        ("right", "minus"): (1, np.array([1.0, -k.conjugate()])),
        ("right", "plus"): (1, np.array([1.0, k])),
        ("left", "minus"): (0, np.array([1.0, k.conjugate()])),
    }

    def boundary(coefs, keys):
        faces = np.zeros((2, 2), dtype=complex)
        for c, key in zip(coefs, keys):
            face, spinor = traces[key]
            faces[face] += c * e * spinor
        return faces

    bp = boundary(x["psi"], [("left", "plus"), ("right", "minus")])
    bq = boundary(x["phi"], [("right", "plus"), ("left", "minus")])

    def j(p, q):
        return p[0].conjugate() * q[1] + p[1].conjugate() * q[0]

    expected = -1j * (j(bp[1], bq[1]) - j(bp[0], bq[0]))
    checks.close(form, expected, "Green identity (quadrature vs boundary form)", tol=1e-8)
    a = v.reshape(-1)
    checks.class_ok(a)
    checks.relation_ok(a, x["u"], m)
    checks.faces_ok(rho.rho_plus, rho.rho_minus, *x["diag"], m)
    checks.require(cmp.classification in ("exact", "sign_pair", "mismatch"), "bad classification")
    q = cmp.primary
    u = checks.gamma_ok([q.g1, q.g2, q.g3])
    checks.relation_ok(x["alpha"], u, m)


LIB = {
    "lib-maps": (maps_prepare, maps_run, maps_check, 50),
    "lib-oracles": (oracles_prepare, oracles_run, oracles_check, 1),
}


def run_lib_ops(dj, workload, seed, indices, deadline, errors):
    """Run ops in order until the deadline.

    Returns per-op nanoseconds at reference speed and as measured; the
    reference kernel runs before and after every window of ops.
    """
    prepare, run, check, _ = LIB[workload]
    scaled, raw, window = [], [], []
    clock = time.perf_counter_ns
    before = speed.probe()
    window_end = time.perf_counter() + WINDOW_S
    for i in indices:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        x = gen.lib_op(workload, seed, i)
        args = prepare(dj, x)
        t0 = clock()
        try:
            out = run(dj, args)
        except Exception:  # an op that raises is a failed op, not a crashed run
            window.append(clock() - t0)
            errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
            continue
        window.append(clock() - t0)
        try:
            check(dj, x, out)
        except checks.CheckError as exc:
            errors.append(f"op {i}: {exc}")
        if time.perf_counter() >= window_end:
            after = speed.probe()
            f = speed.factor(before, after)
            scaled += [t * f for t in window]
            raw += window
            window.clear()
            before, window_end = after, time.perf_counter() + WINDOW_S
    if window:
        f = speed.factor(before, speed.probe())
        scaled += [t * f for t in window]
        raw += window
    return scaled, raw


def lib_main(args) -> None:
    dj = import_package()
    _, _, _, warmup = LIB[args.workload]
    errors: list[str] = []
    run_lib_ops(dj, args.workload, args.seed, range(warmup), None, errors)
    say({"ready": True, "warmup_errors": len(errors)})
    if args.setup_only:
        return
    errors.clear()
    start = time.perf_counter()
    budget = args.seconds / 2.0 if args.trace else args.seconds
    times, raw = run_lib_ops(dj, args.workload, args.seed, range(10**9), start + budget, errors)
    result = {"op_ns": times, "raw_ns": raw, "failed": len(errors), "errors": errors[:5]}
    if args.trace:
        tracer = tracing.Tracer()
        dj = tracing.install(tracer)
        traced_errors: list[str] = []
        traced, _ = run_lib_ops(dj, args.workload, args.seed, range(len(times)), None,
                                traced_errors)
        result.update(traced_ns=traced, traced_failed=len(traced_errors),
                      summary=tracer.summary())
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    say(result)


# ---------------------------------------------------------------------------
# One traced CLI op
# ---------------------------------------------------------------------------


def cli_main(args) -> None:
    op = gen.cli_op(args.workload, args.seed, args.index, args.known_defects)
    tracer = tracing.Tracer()
    import_package()
    tracing.install(tracer)
    from diracjunction import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects bad flags with exit 2
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter would print and exit 1 on
            traceback.print_exc()
            rc = 1
    text = out.getvalue()
    result = {"summary": tracer.summary(), "stdout_bytes": len(text.encode()),
              "instances": op["instances"]}
    try:
        result.update(counts=checks.check_cli(op, rc, text, err.getvalue()), failed=0)
    except checks.CheckError as exc:
        result.update(counts={}, failed=1, error=str(exc))
    say(result)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("lib")
    p.add_argument("--workload", choices=tuple(LIB), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.set_defaults(func=lib_main)
    p = sub.add_parser("cli")
    p.add_argument("--workload", choices=("cli-short", "cli-bulk"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--known-defects", action="store_true")
    p.set_defaults(func=cli_main)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
