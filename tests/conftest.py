"""Shared fixtures.

The board is session-scoped: its measurement caches make hardware
results free to reuse, exactly as the paper measures each workload once.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.core.config import cortex_a53_public_config, cortex_a72_public_config
from repro.frontend.builder import ProgramBuilder
from repro.frontend.interpreter import trace_program
from repro.frontend.program import PatternTaken, SequentialAddr
from repro.hardware.board import FireflyRK3399
from repro.isa.opclasses import OpClass
from repro.isa.registers import int_reg


@pytest.fixture(scope="session", autouse=True)
def session_tempdir():
    """Send the session's temp files to one directory, removed at the end.

    URL-mode fleet workers cache traces under the temp directory and
    never remove them; pointing ``TMPDIR`` (inherited by worker
    subprocesses) and :data:`tempfile.tempdir` (this process) at a
    session directory keeps those caches from outliving the run.
    Yields ``(original temp dir, session dir)``.
    """
    original = tempfile.gettempdir()
    saved_env = os.environ.get("TMPDIR")
    saved_tempdir = tempfile.tempdir
    session = tempfile.mkdtemp(prefix="repro-tests-")
    os.environ["TMPDIR"] = session
    tempfile.tempdir = session
    try:
        yield original, session
    finally:
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(session, ignore_errors=True)


@pytest.fixture(scope="session")
def board() -> FireflyRK3399:
    return FireflyRK3399()


@pytest.fixture()
def a53_config():
    return cortex_a53_public_config()


@pytest.fixture()
def a72_config():
    return cortex_a72_public_config()


def make_alu_loop_trace(n_iters: int = 50, body: int = 8, dependent: bool = False):
    """A small ALU loop trace for core-model tests."""
    b = ProgramBuilder(f"alu-loop-{n_iters}-{body}-{dependent}")
    b.label("top")
    for k in range(body):
        if dependent:
            b.op(OpClass.IALU, int_reg(6), int_reg(6), int_reg(1))
        else:
            b.op(OpClass.IALU, int_reg(6 + k % 8), int_reg(1), int_reg(2))
    b.branch("top", PatternTaken("T" * (n_iters - 1) + "N"), cond_reg=int_reg(2))
    return trace_program(b.build(), max_instructions=100_000)


def make_load_loop_trace(window: int, n_iters: int = 50, stride: int = 64):
    """A streaming-load loop over ``window`` bytes."""
    b = ProgramBuilder(f"load-loop-{window}-{n_iters}-{stride}")
    pattern = SequentialAddr(0x20_0000, stride, window)
    b.label("top")
    for k in range(8):
        b.load(int_reg(6 + k), pattern)
    b.branch("top", PatternTaken("T" * (n_iters - 1) + "N"), cond_reg=int_reg(2))
    return trace_program(b.build(), max_instructions=100_000)


@pytest.fixture()
def alu_trace():
    return make_alu_loop_trace()


@pytest.fixture()
def load_trace():
    return make_load_loop_trace(window=16 * 1024)
