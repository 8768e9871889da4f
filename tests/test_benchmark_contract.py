"""What the benchmark in ``perfbench/`` needs of the package.

The benchmark's checker recomputes sweep values through the generic engine
(``workloads._generic``), and its tracer (``layers.Tracer``) wraps named
functions and methods and reads vectors through ``len``.  These tests load
both files as they are and edit nothing in them, so a change to the package
that breaks the checker or removes a traced name fails here, not only in the
benchmark's own slower self-test.
"""

import importlib.util
import sys
from pathlib import Path

# the tracer wraps names only in loaded modules, so load every one it names
from ergolab import acceptance, blockdiag, cli, core, ergodic, graphop, ladder, sweeps  # noqa: F401
from ergolab.core import SparseVector

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# traced names the package no longer has; the tracer skips and lists them
KNOWN_MISSING = {
    "ergolab.blockdiag.block_cesaro",
    "ergolab.blockdiag.sup_deviation_float",
    "ergolab.cli._deviation_argmax",
    "ergolab.ergodic.cesaro_apply",
    "ergolab.ergodic.power_mean_ergodic_check",
    "ergolab.graphop.enumerate_paths",
    "ergolab.graphop.power_norm_truncated",
}


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_checker_and_tracer_run_on_the_package(monkeypatch):
    workloads, layers = _load("workloads", monkeypatch), _load("layers", monkeypatch)
    apply = graphop.apply
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert set(tracer.missing) <= KNOWN_MISSING
        for power, factor, windows in ((1, 1, [4, 8]), (2, -1, [8]), (1, 1j, [8])):
            got = workloads._generic(power, factor, windows)
            want = sweeps.combined_cesaro_sup_norms(windows, power, factor)
            assert got.keys() == want.keys()
            for n in windows:
                if isinstance(factor, complex):
                    assert abs(got[n] - want[n]) <= workloads.FLOAT_ABS_TOL
                else:
                    assert got[n] == want[n]
        x = graphop.apply(ladder.make_counterexample(), SparseVector.unit(ladder.SOURCE))
        assert x.sup_norm() == 1
    finally:
        tracer.uninstall()
    assert graphop.apply is apply
    report = tracer.report()
    counts = report["counts"]
    assert report["hot"]["core.sup_norm"][0] >= 1 and counts["sup_norm_cells"] >= 1
    assert counts["apply_cells_in"] >= 1 and counts["accumulate_cells"] >= 1
