import tracemalloc

import pytest
import scipy.sparse as sp

import mildsing as ms
from mildsing.fem import _restrict

from oracles import mass_csr_coo

#: collected (number, name, passed, detail) rows from the acceptance module
ACCEPTANCE_RESULTS = []


def record_criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((num, name, bool(passed), detail))
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {name}{tail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        tail = f" ({detail})" if detail else ""
        terminalreporter.write_line(
            f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {name}{tail}"
        )


def mass_operator(K, lumped=False):
    """The mass matrix over ``K``'s free nodes: consistent, or lumped (``K.ml``) with ``lumped``."""
    return sp.diags(K.ml).tocsr() if lumped else _restrict(mass_csr_coo(K.mesh), K.free)


@pytest.fixture
def fem_calls(monkeypatch):
    """List that records, by name, each call of ``fem.stiffness_csr`` and ``fem._multigrid``."""
    from mildsing import fem

    calls = []
    for name in ("stiffness_csr", "_multigrid"):
        def counted(*args, _name=name, _original=getattr(fem, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fem, name, counted)
    return calls


@pytest.fixture
def traced_peak():
    """``peak(fn, *args)``: ``fn(*args)`` and the peak bytes ``tracemalloc`` saw allocated during it.

    numpy reports its array buffers to ``tracemalloc``, so the figure is
    deterministic; memory allocated before the call does not count.
    """
    def peak(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture(scope="session")
def unit_interval_257():
    return ms.build_interval_mesh(1.0, 257)


@pytest.fixture(scope="session")
def unit_square_9():
    return ms.build_rectangle_mesh(1.0, 1.0, 9, 9)


@pytest.fixture(scope="session")
def unit_square_65():
    return ms.build_rectangle_mesh(1.0, 1.0, 65, 65)


@pytest.fixture(scope="session")
def identity_65(unit_square_65):
    return ms.Coefficient.identity(unit_square_65)
