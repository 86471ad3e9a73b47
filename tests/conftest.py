"""Shared test plumbing: per-criterion result lines echoed in the run summary,
and the hypothesis profile CI selects."""

import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# property failure seen in CI reproduces locally with the same flag.
settings.register_profile("ci", derandomize=True)

_criterion_lines = []


@pytest.fixture(scope="session")
def criterion():
    """Record and print one pass/fail line per acceptance criterion."""

    def _report(num: int, name: str, ok: bool, detail: str) -> bool:
        line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        _criterion_lines.append(line)
        print(line)
        return ok

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
