import numpy as np
import pytest
from hypothesis import settings

# Property tests must not flake: fixed example sequences, and no per-example
# deadline, whose wall-clock limit a busy host can exceed.
settings.register_profile("tghnet", deadline=None, derandomize=True)
settings.load_profile("tghnet")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None or not marker.args:
        return
    number, title = marker.args
    status = "PASS" if report.passed else "FAIL"
    terminal = item.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_line(f"[acceptance] criterion {number} ({title}): {status}")


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap module.name so each call appends to the returned list."""

    def install(module, name):
        calls = []
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or inner(*a, **k))
        return calls

    return install


@pytest.fixture(scope="session")
def format_2_blob():
    """The blob model formats 1 and 2 stored for a network: a b of zeros
    after each batch-norm layer's W, where format 3 stores none."""

    def blob(net):
        arrays = [a for w, b, _, _, bn in net.layers
                  for a in (w, np.zeros(w.shape[1]) if bn else b, *(bn[:2] if bn else ()))]
        arrays += [a for *_, bn in net.layers if bn for a in bn[2:4]]
        return b"".join(a.astype("<f8").tobytes() for a in arrays)

    return blob
