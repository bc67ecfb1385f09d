"""Independent output checks.

Every check recomputes an invariant from the op's generated inputs with the
benchmark's own numpy code: class constraints, unitarity, the defining
boundary-value relation between a unitary and its boundary condition, the
plane-wave matching equations, current conservation (R + T = 1) and the
CLI's exit-code contract.  Nothing is compared against the program's own
output from another run or another code path.  A failed check raises
:class:`CheckError`.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-10  # class constraints, unitarity, round trips, relations
UNITARITY_TOL = 1e-12  # R + T = 1 and |r| = 1 per row

CSV_HEADER = "E,k,lambda,re_r,im_r,re_t,im_t,R,T,phase_t,flag"
CSV_FIELDS = CSV_HEADER.split(",")


class CheckError(Exception):
    """An output violates an invariant the benchmark checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def cnum(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def rho_value(v) -> float:
    return math.inf if v == "inf" else float(v)


def mu(m: float) -> complex:
    s = math.hypot(1.0, m)
    return complex(1.0 / s, m / s)


def as_matrix(rows) -> np.ndarray:
    return np.array([[cnum(e) for e in row] for row in rows], dtype=complex)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def class_ok(alpha) -> None:
    """Transmitting class: four orthogonality and two unit-determinant
    constraints, each within TOL * max(1, sum |a_i|^2)."""
    a1, a2, a3, a4 = (complex(x) for x in alpha)
    res = [
        (a1 * a2.conjugate()).real,
        (a1 * a3.conjugate()).real,
        (a2 * a4.conjugate()).real,
        (a3 * a4.conjugate()).real,
        a1 * a4.conjugate() + a2 * a3.conjugate() - 1.0,
        a1 * a4.conjugate() + a2.conjugate() * a3 - 1.0,
    ]
    scale = max(1.0, sum(abs(x) ** 2 for x in (a1, a2, a3, a4)))
    worst = max(abs(r) for r in res)
    require(worst <= TOL * scale, f"class constraint residual {worst:.3e} (scale {scale:.3e})")


def unitary_ok(u: np.ndarray) -> None:
    res = float(np.abs(u.conj().T @ u - np.eye(2)).max())
    require(res <= TOL, f"unitarity residual {res:.3e}")


def close(x, y, what: str, tol: float = TOL, scale: float = 1.0) -> None:
    d = float(np.abs(np.asarray(x, dtype=complex) - np.asarray(y, dtype=complex)).max())
    require(d <= tol * max(1.0, scale), f"{what}: difference {d:.3e}")


def compose(g) -> np.ndarray:
    g1, g2, g3 = (complex(x) for x in g)
    return g3 * np.array([[g1, -g2.conjugate()], [g2, g1.conjugate()]])


def gamma_ok(g) -> np.ndarray:
    """Norm constraints |g1|^2 + |g2|^2 = |g3| = 1; returns the unitary."""
    g1, g2, g3 = (complex(x) for x in g)
    require(abs(abs(g1) ** 2 + abs(g2) ** 2 - 1.0) <= TOL, "|g1|^2 + |g2|^2 != 1")
    require(abs(abs(g3) - 1.0) <= TOL, "|g3| != 1")
    return compose(g)


def _domain_spinors(u: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary spinors of the domain basis psi_j^+ + U psi_j^- at -L and +L."""
    k = mu(m)
    lp, lm = np.array([1.0, -k]), np.array([1.0, k.conjugate()])
    rp, rm = np.array([1.0, k]), np.array([1.0, -k.conjugate()])
    minus = np.column_stack([lp + u[0, 0] * lm, u[1, 0] * lm])
    plus = np.column_stack([u[0, 1] * rm, rp + u[1, 1] * rm])
    return minus, plus


def relation_ok(alpha, u: np.ndarray, m: float) -> None:
    """The boundary matrix maps the domain basis across: B psi(-L) = psi(+L)."""
    b = np.array(alpha, dtype=complex).reshape(2, 2)
    minus, plus = _domain_spinors(u, m)
    close(b @ minus, plus, "boundary-value relation B psi(-L) = psi(+L)",
          scale=float(np.abs(b).max()))


def alpha_of(u: np.ndarray, m: float) -> np.ndarray:
    """Boundary matrix of a non-diagonal unitary, solved from the relation."""
    minus, plus = _domain_spinors(u, m)
    return plus @ np.linalg.inv(minus)


def faces_ok(rho_plus: float, rho_minus: float, gl: complex, gr: complex, m: float) -> None:
    """Separating condition i rho psi_up = psi_down holds on the boundary
    spinor of each face's domain element psi^+ + g psi^-."""
    k = mu(m)
    for rho, up, down, face in (
        (rho_minus, 1.0 + gl, -k + gl * k.conjugate(), "left"),
        (rho_plus, 1.0 + gr, k - gr * k.conjugate(), "right"),
    ):
        if math.isinf(rho):
            require(abs(up) <= TOL, f"{face} face: rho = inf but 1 + g = {abs(up):.3e}")
        else:
            r = abs(1j * rho * up - down)
            require(r <= TOL * max(1.0, abs(rho)), f"{face} face relation residual {r:.3e}")


def bd_ok(theta: float, bs, alpha) -> None:
    b1, b2, b3, b4 = (float(b) for b in bs)
    require(abs(b1 * b4 + b2 * b3 - 1.0) <= TOL * max(1.0, max(abs(b) for b in bs) ** 2),
            "b1*b4 + b2*b3 != 1")
    ph = complex(math.cos(theta), math.sin(theta))
    close([ph * b1, 1j * ph * b2, 1j * ph * b3, ph * b4], alpha, "e^{i theta} b-form vs alpha",
          scale=max(abs(complex(a)) for a in alpha))


# ---------------------------------------------------------------------------
# Scattering rows
# ---------------------------------------------------------------------------


def rows_ok(cols: dict[str, np.ndarray], flags: list[str], spec: dict) -> int:
    """Check a sweep's rows; returns how many were flagged as resonances."""
    m, steps = spec["m"], spec["steps"]
    e = cols["E"]
    require(e.size == steps, f"expected {steps} rows, got {e.size}")
    close(e, np.linspace(spec["emin"], spec["emax"], steps), "energy grid", tol=1e-12,
          scale=spec["emax"])
    ok = np.array([f == "" for f in flags])
    require(all(f in ("", "RESONANCE") for f in flags), "unknown row flag")
    e = e[ok]
    k = np.sqrt(e * e - m * m)
    lam = k / (e + m)
    close(cols["k"][ok], k, "k = sqrt(E^2 - m^2)", tol=1e-12, scale=float(k.max(initial=1.0)))
    close(cols["lambda"][ok], lam, "lambda = k/(E + m)", tol=1e-12)
    r = cols["re_r"][ok] + 1j * cols["im_r"][ok]
    t = cols["re_t"][ok] + 1j * cols["im_t"][ok]
    R, T = cols["R"][ok], cols["T"][ok]
    close(R, np.abs(r) ** 2, "R = |r|^2", tol=UNITARITY_TOL)
    close(T, np.abs(t) ** 2, "T = |t|^2", tol=UNITARITY_TOL)
    close(R + T, 1.0, "R + T = 1", tol=UNITARITY_TOL)
    u = as_matrix(spec["u"]) if "u" in spec else None
    if "alpha" in spec or (u is not None and abs(u[1, 0]) > TOL):
        b = (np.array([cnum(a) for a in spec["alpha"]]).reshape(2, 2)
             if "alpha" in spec else alpha_of(u, m))
        # t u_+ = B (u_+ + r u_-) with u_{+-} = (1, +-lambda)
        lhs = np.stack([t, t * lam])
        rhs = b @ np.stack([1.0 + r, lam * (1.0 - r)])
        close(lhs, rhs, "matching t u+ = B(u+ + r u-)", scale=float(np.abs(b).max()))
        return int((~ok).sum())
    close(np.abs(r), 1.0, "|r| = 1 on a separating condition", tol=UNITARITY_TOL)
    close(t, 0.0, "t = 0 on a separating condition", tol=0.0)
    left = spec["face"] == "left"
    # boundary spinor at the face: (1 + r, +-lambda (1 - r))
    up, down = 1.0 + r, (lam if left else -lam) * (1.0 - r)
    if "rho" in spec:
        rho = rho_value(spec["rho"][1 if left else 0])
        if math.isinf(rho):
            close(up, 0.0, "psi_up = 0 at an infinite-rho face")
        else:
            close(1j * rho * up, down, "i rho psi_up = psi_down", scale=abs(rho))
    else:
        k_ = mu(m)
        g = u[0, 0] if left else u[1, 1]
        spinor = (1.0 + g, -k_ + g * k_.conjugate()) if left else (1.0 + g, k_ - g * k_.conjugate())
        close(up * spinor[1], down * spinor[0], "face spinor parallel to domain element", tol=1e-9)
    return int((~ok).sum())


def parse_rows(text: str, fmt: str) -> tuple[dict[str, np.ndarray], list[str]]:
    if fmt == "json":
        try:
            recs = json.loads(text)
        except ValueError as exc:
            raise CheckError(f"scatter JSON does not parse: {exc}") from exc
        require(isinstance(recs, list) and all(isinstance(r, dict) for r in recs),
                "scatter JSON is not a list of rows")
        require(all(list(r) == CSV_FIELDS for r in recs), "scatter JSON rows lack fields")
        cols = {f: np.array([r[f] for r in recs], dtype=float) for f in CSV_FIELDS[:-1]}
        return cols, [r["flag"] for r in recs]
    require(text.endswith("\n"), "CSV output does not end in a newline")
    lines = text[:-1].split("\n")
    require(lines[0] == CSV_HEADER, "CSV header differs")
    fields = [line.split(",") for line in lines[1:]]
    require(all(len(f) == len(CSV_FIELDS) for f in fields), "CSV row with a wrong field count")
    try:
        data = np.array([f[:-1] for f in fields], dtype=float).reshape(-1, len(CSV_FIELDS) - 1)
    except ValueError as exc:
        raise CheckError(f"CSV value does not parse: {exc}") from exc
    cols = {f: data[:, i] for i, f in enumerate(CSV_FIELDS[:-1])}
    return cols, [f[-1] for f in fields]


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------


def _json_line(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError(f"output JSON does not parse: {exc}") from exc


def check_cli(op: dict, rc: int, out: str, err: str) -> dict:
    """Check one CLI process; returns counts (rows, flagged) for the trace."""
    spec = op.get("spec", {})
    require("Traceback" not in err, "traceback on stderr")
    if "invalid" in spec:
        require(rc == 2, f"invalid input exited {rc}, expected 2")
        require(out == "", "invalid input wrote to stdout")
        return {}
    require(rc == 0, f"exit code {rc}, expected 0: {err.strip()[-200:]}")
    kind = op["kind"]
    if kind.startswith("scatter"):
        cols, flags = parse_rows(out, spec["format"])
        return {"rows": len(flags), "flagged": rows_ok(cols, flags, spec)}
    if kind.startswith("verify"):
        lines = out.rstrip("\n").split("\n")
        require(lines[-1] == "PASS", "verify does not end in PASS")
        checks = [ln for ln in lines[:-1] if ln.startswith("PASS ")]
        require(all(ln.startswith(("PASS ", "INFO ")) for ln in lines[:-1]),
                "verify printed a line that is neither PASS nor INFO")
        require(len(checks) >= (6 if "fuzz" in spec else 1), "verify ran too few checks")
        return {}
    if kind.startswith("demo"):
        lines = out.rstrip("\n").split("\n")
        payload = _json_line(lines[-1])
        require(payload.get("ok") is True, "demo-switch reports ok = false")
        for name, spin in (("unit0", "preserve"), ("unit1", "swap")):
            unit = payload[name]
            a = [cnum(x) for x in unit["alpha"]]
            class_ok(a)
            off, diag = (a[1], a[2]), (a[0], a[3])
            require(max(abs(x) for x in (off if spin == "preserve" else diag)) <= 1e-12,
                    f"{name} does not {spin} spin components")
            t, r = cnum(unit["t"]), cnum(unit["r"])
            close(abs(t) ** 2 + abs(r) ** 2, 1.0, f"{name} |r|^2 + |t|^2", tol=UNITARITY_TOL)
            close(unit["T"], 1.0, f"{name} full transmission", tol=UNITARITY_TOL)
        for v in payload["phase_variants"]:
            close(v["T"], 1.0, "phase variant T", tol=UNITARITY_TOL)
            close(np.exp(1j * (v["transmission_phase"] - v["theta"])), 1.0, "phase tracks theta",
                  tol=1e-12)
        if "theta" in spec:
            req = payload["phase_request"]
            close(req["theta"], spec["theta"], "requested phase parsed", tol=1e-12)
            close(np.exp(1j * (req["transmission_phase"] - spec["theta"])), 1.0,
                  "requested phase transmitted", tol=1e-12)
            require(req["verified"] is True, "phase request not verified")
            require(lines[-2].startswith("Phase variant"), "phase line missing")
        require(lines[0].startswith("Unit0") and lines[1].startswith("Unit1"), "unit lines missing")
        return {}
    payload = _json_line(out)
    m = spec.get("m", 0.0)
    if kind == "decompose":
        u = as_matrix(spec["u"])
        g = [cnum(payload[f"gamma{i}"]) for i in (1, 2, 3)]
        close(gamma_ok(g), u, "decomposition round trip")
        require(g[2].imag > 0.0 or (g[2].imag == 0.0 and g[2].real > 0.0), "g3 not canonical")
        branch = "u21_zero" if abs(u[1, 0]) <= TOL else "u21_nonzero"
        require(payload["branch"] == branch, "wrong branch reported")
    elif kind == "u2-to-bc":
        u = as_matrix(spec["u"])
        if abs(u[0, 1]) <= TOL and abs(u[1, 0]) <= TOL:
            require(payload["type"] == "separating", "diagonal unitary not separating")
            faces_ok(rho_value(payload["rho_plus"]), rho_value(payload["rho_minus"]),
                     u[0, 0], u[1, 1], m)
        else:
            require(payload["type"] == "transmitting", "non-diagonal unitary not transmitting")
            a = [cnum(x) for x in payload["alpha"]]
            class_ok(a)
            relation_ok(a, u, m)
    elif kind == "bc-to-u2":
        a = [cnum(x) for x in spec["alpha"]]
        u = gamma_ok([cnum(payload[f"gamma{i}"]) for i in (1, 2, 3)])
        unitary_ok(u)
        relation_ok(a, u, m)
        cmp = payload["closed_form_comparison"]
        flags = [cmp[k] for k in ("agrees_exactly", "agrees_up_to_sign_pair", "disagrees")]
        require(sorted(flags) == [False, False, True], "closed-form comparison not one-hot")
    elif kind == "alpha-to-bd":
        a = [cnum(x) for x in spec["alpha"]]
        require(0.0 <= payload["theta"] < 2.0 * math.pi, "theta outside [0, 2 pi)")
        bd_ok(payload["theta"], payload["a"], a)
    elif kind == "bd-to-alpha":
        theta, *bs = spec["bd"]
        a = [cnum(x) for x in payload["alpha"]]
        class_ok(a)
        bd_ok(theta, bs, a)
    elif kind == "rho-to-u2":
        gl, gr = cnum(payload["gamma_left"]), cnum(payload["gamma_right"])
        close([abs(gl), abs(gr)], [1.0, 1.0], "unimodular gammas")
        faces_ok(rho_value(spec["rho"][0]), rho_value(spec["rho"][1]), gl, gr, m)
    else:
        raise CheckError(f"no checker for kind {kind!r}")
    return {}
