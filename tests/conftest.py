"""Shared fixtures: the streamed source of tau_N that every command
reads past one window, a record of the hyperbola module's residue-table
builds, and the one way a test starts a python process."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from matcount import hyperbola
from matcount.tau_tables import TauWindows


@pytest.fixture(scope="session")
def spawn():
    """spawn(*args, mib=None, cpu=None, env=None, timeout=None, **popen):
    python with args in a fresh process, with this checkout's src as its
    PYTHONPATH in env (default os.environ), stdout and stderr piped as
    text.  mib caps its address space (RLIMIT_AS, in MiB) and cpu pins
    it to that one CPU, both set in the child between fork and exec.
    Without a timeout it returns the running Popen; with one, the
    finished run, as subprocess.run, which kills it at the timeout."""
    src = str(Path(hyperbola.__file__).resolve().parents[1])

    def spawn(*args, mib=None, cpu=None, env=None, timeout=None, **popen):
        if mib is not None:
            import resource
        if mib is not None or cpu is not None:
            def limit():
                if mib is not None:
                    resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})

            popen["preexec_fn"] = limit
        argv = [sys.executable, *args]
        popen.update(stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                     env=dict(os.environ if env is None else env, PYTHONPATH=src))
        if timeout is None:
            return subprocess.Popen(argv, **popen)
        return subprocess.run(argv, timeout=timeout, **popen)

    return spawn


@pytest.fixture(scope="session")
def tau_windows():
    """TauWindows, the source of tau_N that every command reads past one
    window: each reduction streams its windows through the forked pass,
    at the production window size.  It holds only N, so nothing is kept."""
    return TauWindows


@pytest.fixture
def table_builds(monkeypatch):
    """(key, tables) of every residue table built while the test runs:
    hyperbola._classes is replaced by a cache of the same size around
    the same builder, which records each build (each cache miss)."""
    builds = []
    build = hyperbola._classes.__wrapped__

    def record(*key):
        builds.append((key, build(*key)))
        return builds[-1][1]

    monkeypatch.setattr(hyperbola, "_classes", lru_cache(maxsize=1)(record))
    return builds
