"""Every frozen record of bench/records.json, reproduced in-process.

The benchmark checks its record jobs against ``bench/records.json``, which
``bench/freeze.py`` wrote.  This test runs the same inputs through the same
job bodies (``workloads.execute``), and each CLI argv through
``cli.run_command`` with its stdout captured, so a change that moves a
frozen output fails here before the benchmark sees it.  It only reads
``bench/``.
"""

import contextlib
import io
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads as wl  # noqa: E402

from vcarlitz.cli import run_command  # noqa: E402


@pytest.fixture(scope="module")
def frozen():
    """(lib, shipped files, records, pooled specs), with the cwd at the root."""
    cwd = os.getcwd()
    os.chdir(ROOT)          # record keys hold data paths relative to it
    try:
        lib = wl.Lib()
        yield lib, wl.load_shipped(), wl.load_records(), list(
            wl.record_pool(lib))
    finally:
        os.chdir(cwd)


def _reproduce(lib, shipped, spec):
    if spec["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_command(list(spec["argv"]))
        return [out.getvalue(), code]
    value = wl.execute(lib, spec, shipped)
    # a t-module job returns (verdict, value, check); the value is frozen
    return value[1] if spec["kind"] == "tmodule" else value


def test_pool_and_records_cover_each_other(frozen):
    _, _, records, pool = frozen
    keys = {(spec["kind"], wl.record_key(spec)) for spec in pool}
    assert keys == {(kind, key) for kind, recs in records.items()
                    for key in recs}


def test_every_record_is_reproduced(frozen):
    lib, shipped, records, pool = frozen
    mismatched = [(spec["kind"], wl.record_key(spec)) for spec in pool
                  if _reproduce(lib, shipped, spec)
                  != records[spec["kind"]][wl.record_key(spec)]]
    assert mismatched == []
