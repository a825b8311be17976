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
