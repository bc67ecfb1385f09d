"""The scalar map pipeline on Python numbers alone, as a script.

Classifies a non-diagonal and a diagonal unitary given as nested lists, maps
the transmitting condition to its U(2) parameters and its b-form and back,
scatters off both conditions at one energy and over a sweep, and runs
``verify_fuzz`` over 200 instances.  It asserts the round trips and the fuzz
verdict, prints the ``repr`` of every result and, last, whether ``numpy``
was loaded.  ``tests/test_imports.py`` runs it with numpy blocked and
unblocked and compares the two outputs; it also runs where nothing but the
standard library is installed:

    PYTHONPATH=src python tests/map_pipeline.py
"""

import math
import sys

import diracjunction as dj
from diracjunction.checks import verify_fuzz
from diracjunction.matrix2 import compose, decompose_u2


def main() -> None:
    m, E = 1.0, 2.5
    phase = complex(math.cos(0.7), math.sin(0.7))
    u = [[phase * 0.6, phase * 0.8j], [phase * 0.8j, phase * 0.6]]
    out = [decompose_u2(u)]
    bc = dj.classify(u, m)
    a = bc.alpha
    q = dj.alpha_to_u2(a, m)
    back = dj.u2_to_alpha(q, m)
    f = dj.alpha_to_bd(a)
    again = dj.bd_to_alpha(f)
    for x, y, z in zip(a.as_tuple(), back.as_tuple(), again.as_tuple()):
        assert abs(x - y) <= 1e-12 and abs(x - z) <= 1e-12, (a, back, again)
    entries = compose(q)
    assert all(abs(x - y) <= 1e-12 for row, given in zip(entries, u) for x, y in zip(row, given)), (entries, u)
    sep = dj.classify([[1j, 0], [0, complex(0.6, 0.8)]], m)
    gl, gr = dj.rho_to_diagonal_u2(sep.rho, m)
    assert abs(gl - 1j) <= 1e-12 and abs(gr - complex(0.6, 0.8)) <= 1e-12, (gl, gr)
    fuzz = verify_fuzz(200, m, dj.DEFAULT_TOL, 7)
    assert fuzz.passed, fuzz
    out += [bc, q, back, f, again, entries, sep, (gl, gr), dj.scatter_alpha(a, E, m), dj.scatter_rho(sep.rho, E, m),
            dj.sweep_columns(bc, 1.2, 3.0, 16, m), dj.sweep_columns(sep, 1.2, 3.0, 16, m), fuzz]
    for result in out:
        print(repr(result))
    print("numpy loaded:", "numpy" in sys.modules)


if __name__ == "__main__":
    main()
