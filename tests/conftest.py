"""Shared pytest hooks: echo acceptance criterion verdicts after the run,
and a gradient-corrupting fixture for the gradient check's negative controls."""

import pytest

from poirec import training

_criterion_lines: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {number}: {verdict} - {detail}"
    _criterion_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_criterion_lines):
        terminalreporter.write_line(line)


@pytest.fixture
def corrupt_gradients(monkeypatch):
    """`corrupt_gradients(name)` makes `training.gradients` return tensor
    `name`'s gradient with its first entry off by 1 for the rest of the test."""
    real = training.gradients

    def corrupt(name: str) -> None:
        def corrupted(*args):
            grads = real(*args)
            grads[name].flat[0] += 1.0
            return grads

        monkeypatch.setattr(training, "gradients", corrupted)

    return corrupt
