"""The benchmark tracer's view of the package stays valid.

``bench/tracing.py`` wraps package functions by module and attribute name,
and reads the solver's default KKT tolerance from its signature, so a
rename or a dropped parameter breaks ``bench/run.py --trace 1`` runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from timedchoice import solvers

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    for module_name, attr, _, _ in _tracing().targets():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_solver_hook_reads_the_default_tolerance():
    res = np.array([0.0, solvers.KKT_TOL, 2 * solvers.KKT_TOL])
    attrs = _tracing()._solver_attrs(
        solvers.constrained_lstsq_batch, (), {}, (None, None, res)
    )
    assert attrs == {"problems": 3, "unconverged": 1, "max_kkt": 2 * solvers.KKT_TOL}
