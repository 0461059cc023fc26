import numpy as np
import pytest

_ACCEPTANCE_LINES = pytest.StashKey[list]()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def acceptance_report(request):
    """Record one ``ACCEPTANCE`` line; returns ``ok`` so a test can assert it."""
    lines = request.config.stash.setdefault(_ACCEPTANCE_LINES, [])

    def report(name: str, ok: bool, detail: str) -> bool:
        lines.append(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        return ok

    return report


def pytest_terminal_summary(terminalreporter, config):
    # through pytest's own reporter, so the lines show under any capture mode
    lines = config.stash.get(_ACCEPTANCE_LINES, [])
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
