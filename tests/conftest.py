"""Shared fixtures: targets are expensive to build, so cache per session.

The persistent artifact cache (:mod:`repro.cache`) is forced OFF for the
suite: several tests assert exact warmup/miss counts that disk-preloaded
JIT or timing state would violate, and a shared ``~/.cache/repro`` must
never leak state into (or out of) a test run.  Tests that exercise the
cache itself opt back in with ``repro.cache.configure(root=tmp_path,
enabled=True)``.
"""

import os

os.environ["REPRO_CACHE"] = "0"

import pytest

from repro import obs
from repro.targets import load_target


@pytest.fixture
def process_recorder(monkeypatch):
    """A fresh process recorder (``obs.record()``) for one test; the
    previous one, or none, is put back afterwards."""
    monkeypatch.setattr("repro.obs.trace._process", obs.recorder())
    return obs.record()


@pytest.fixture(scope="session")
def toyp():
    return load_target("toyp")


@pytest.fixture(scope="session")
def r2000():
    return load_target("r2000")


@pytest.fixture(scope="session")
def m88000():
    return load_target("m88000")


@pytest.fixture(scope="session")
def i860():
    return load_target("i860")


@pytest.fixture(scope="session")
def all_targets(toyp, r2000, m88000, i860):
    return {"toyp": toyp, "r2000": r2000, "m88000": m88000, "i860": i860}
