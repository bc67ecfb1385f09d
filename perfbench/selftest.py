"""Self-tests of the benchmark: the checkers reject corrupted outputs, a run
with zero ops is a failure, and a seed fixes every input.

    python3 perfbench/selftest.py

Genuine outputs come from running ``diracjunction.cli.main`` of this
checkout's ``src/`` in-process; each test then corrupts one and expects the
checker to raise.  Exits 1 if any test fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402


def run_cli(op: dict) -> tuple[int, str, str]:
    from diracjunction import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def find_op(kind: str, accept=lambda op: True) -> dict:
    for i in range(10**4):
        op = gen.cli_op("cli-short", 7, i, known_defects=True)
        if op["kind"] == kind and accept(op):
            return op
    raise LookupError(kind)


def rejects(op: dict, rc: int, out: str, err: str = "") -> bool:
    try:
        checks.check_cli(op, rc, out, err)
    except checks.CheckError:
        return True
    return False


def test_sign_flipped_alpha_is_rejected():
    op = find_op("bd-to-alpha")
    rc, out, err = run_cli(op)
    assert not rejects(op, rc, out, err), "genuine output rejected"
    payload = json.loads(out)
    payload["alpha"][1][0] = -payload["alpha"][1][0]  # flip the sign of Re(a2)
    assert rejects(op, rc, json.dumps(payload))


def test_sign_flipped_transmitting_alpha_is_rejected():
    op = find_op("u2-to-bc", lambda op: "--diag" not in op["argv"])
    rc, out, err = run_cli(op)
    assert not rejects(op, rc, out, err), "genuine output rejected"
    payload = json.loads(out)
    payload["alpha"][0][1] = -payload["alpha"][0][1]  # flip the sign of Im(a1)
    assert rejects(op, rc, json.dumps(payload))


def _scatter_op(fmt: str, payload: str = "alpha") -> dict:
    rng = gen.rng_for("cli-bulk", 7, 0, 0)
    op = gen._scatter(rng, 64, payload, fmt)
    op["kind"] = f"scatter-{payload}-{fmt}"
    return op


def test_r_plus_t_off_by_1e9_is_rejected():
    for fmt in ("csv", "json"):
        op = _scatter_op(fmt)
        rc, out, err = run_cli(op)
        assert not rejects(op, rc, out, err), f"genuine {fmt} output rejected"
        if fmt == "json":
            rows = json.loads(out)
            rows[10]["T"] += 1e-9
            bad = json.dumps(rows)
        else:
            lines = out.split("\n")
            fields = lines[11].split(",")
            fields[8] = repr(float(fields[8]) + 1e-9)
            lines[11] = ",".join(fields)
            bad = "\n".join(lines)
        assert rejects(op, rc, bad), fmt


def test_reflection_off_unit_circle_is_rejected():
    op = _scatter_op("csv", "rho")
    rc, out, err = run_cli(op)
    assert not rejects(op, rc, out, err), "genuine output rejected"
    lines = out.split("\n")
    fields = lines[5].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-9))
    lines[5] = ",".join(fields)
    assert rejects(op, rc, "\n".join(lines))


def test_truncated_csv_is_rejected():
    op = _scatter_op("csv")
    rc, out, err = run_cli(op)
    lines = out.split("\n")
    assert rejects(op, rc, "\n".join(lines[:-2]) + "\n"), "one row short"
    assert rejects(op, rc, out[: len(out) // 2]), "cut mid-row"
    assert rejects(op, rc, out[: out.rfind(",")] + "\n"), "last field missing"


def test_broken_json_is_rejected():
    op = _scatter_op("json")
    rc, out, err = run_cli(op)
    assert rejects(op, rc, out[:-10])


def test_wrong_exit_code_is_rejected():
    op = find_op("non-unitary")
    rc, out, err = run_cli(op)
    assert rc == 2 and not rejects(op, rc, out, err), "genuine rejection not accepted"
    assert rejects(op, 1, out, err), "exit 1 where 2 is expected"
    assert rejects(op, 0, out, err), "exit 0 on invalid input"
    assert rejects(op, 2, out, "Traceback (most recent call last):\n"), "traceback"


def test_verify_must_end_in_pass():
    op = find_op("verify-rho")
    rc, out, err = run_cli(op)
    assert not rejects(op, rc, out, err), "genuine output rejected"
    assert rejects(op, rc, out.replace("PASS\n", "FAIL\n")[:-1] + "\n")
    assert rejects(op, rc, "PASS\n"), "PASS over zero checks"


def test_negative_mass_is_a_failure_today():
    op = find_op("negative-mass")
    assert op["argv"][op["argv"].index("--mass") + 1] == "-1"
    rc, out, err = run_cli(op)
    if rc == 2 and "Traceback" not in err:
        return  # fixed in the program: the checker must accept the fix
    assert rejects(op, rc, out, err)


def test_zero_ops_is_a_failure():
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-short",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=120,
    )
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert p.returncode != 0 and result["correct"] is False and result["attempted"] == 0


def test_same_seed_same_inputs():
    for workload in ("cli-short", "cli-bulk"):
        a = [gen.cli_op(workload, 11, i, True) for i in range(60)]
        b = [gen.cli_op(workload, 11, i, True) for i in range(60)]
        c = [gen.cli_op(workload, 12, i, True) for i in range(60)]
        assert a == b, workload
        assert [op["argv"] for op in a] != [op["argv"] for op in c], workload
        assert json.loads(json.dumps(a)) == a, "ops must survive a JSON round trip"
    for workload in ("lib-maps", "lib-oracles"):
        for i in range(20):
            x, y = gen.lib_op(workload, 11, i), gen.lib_op(workload, 11, i)
            for key in x:
                assert np.array_equal(np.asarray(x[key]), np.asarray(y[key])), (workload, key)
        assert not np.array_equal(gen.lib_op(workload, 11, 0)["u"], gen.lib_op(workload, 12, 0)["u"])


def test_every_kind_is_drawn():
    short = {gen.cli_op("cli-short", 3, i, True)["kind"] for i in range(200)}
    assert short == set(gen.SHORT_VALID + gen.SHORT_INVALID + gen.KNOWN_DEFECTS), short
    default = {gen.cli_op("cli-short", 3, i)["kind"] for i in range(200)}
    assert not default & set(gen.KNOWN_DEFECTS)
    bulk = {gen.cli_op("cli-bulk", 3, i)["kind"] for i in range(len(gen.BULK_SIZES))}
    assert bulk == set(gen.BULK_SIZES)


def test_fuzz_at_mass_10_only_with_known_defects():
    def fuzz_masses(known_defects):
        ops = [gen.cli_op("cli-bulk", 3, i, known_defects) for i in range(60)]
        return {float(op["argv"][op["argv"].index("--mass") + 1])
                for op in ops if op["kind"] == "verify-fuzz"}

    assert fuzz_masses(False) == set(gen.FUZZ_MASSES)
    assert fuzz_masses(True) == {gen.FUZZ_DEFECT_MASS}


def main() -> int:
    tests = [(name, f) for name, f in globals().items() if name.startswith("test_")]
    failed = 0
    for name, test in tests:
        try:
            test()
            print(f"ok   {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
