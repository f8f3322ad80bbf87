"""Set-up cost of optquad: import it and finish its lazy set-up.

Lazy set-up means the `_series` coefficient caches of both characteristic
polynomials and the first LAPACK calls (SVD condition number and solve).
Run as a script, it does this once in a fresh interpreter and prints the
seconds taken, at reference speed (see `speed.py`); `run.py` starts it a few
times to get a median.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def measure_setup() -> tuple[float, float]:
    """Seconds to import optquad (with numpy and mpmath), and to also warm its caches."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import optquad
    import optquad.cli  # noqa: F401  (the CLI module is not imported by the package)

    imported = time.perf_counter() - start
    if not Path(optquad.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"optquad was imported from {optquad.__file__}, not from {SRC}")
    optquad.closed_form_m2(4)
    optquad.stable_roots(optquad.characteristic_polynomial(3, 0.25))
    optquad.solve(optquad.assemble_system(3, 4))
    return imported, time.perf_counter() - start


if __name__ == "__main__":
    seconds = measure_setup()[1]
    print(repr(seconds * speed.scale()))
