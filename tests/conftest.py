"""Shared pytest wiring for the test suite.

The acceptance-gate tests announce one pass/fail line per criterion.  Output
written inside a test body is captured by pytest and hidden for passing
tests, so the lines are buffered here and emitted through the terminal
reporter at the end of the run, where they always reach the console.

Hypothesis settings come from the profile named by ``HYPOTHESIS_PROFILE``:
``ci`` prints the reproduction blob of a failing example; example counts and
deadlines stay as each test sets them.

``checkpoint_arrays`` gives the tests a name -> view map of a checkpoint's
parameter buffer.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests then fail to import on their own
    pass
else:
    settings.register_profile("ci", print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

CRITERION_LINES: list[str] = []


def checkpoint_arrays(ckpt) -> dict:
    """Flat parameter name -> view of its values in ``ckpt.buffer``."""
    from mmists.tensor import buffer_views

    return dict(zip((name for name, _ in ckpt.index), buffer_views(ckpt.buffer, [s for _, s in ckpt.index])))


def record_criterion_line(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.line(line)
