"""Checks on the benchmark itself: failure counting and wrapper removal.

Run with ``python3 -m pytest bench``.
"""

import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as scipy_fft

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dipgpe  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402
from workloads import Evolve48  # noqa: E402


class ShortEvolve48(Evolve48):
    """evolve48 cut to 10 steps, optionally with mass drift injected."""

    def __init__(self, drift: float = 0.0) -> None:
        self.drift = drift

    def configs(self, seed):
        return [text.replace("T = 0.5\n", "T = 0.01\n") for text in super().configs(seed)]

    def run(self, prepared, out_dir, max_workers=None):
        out = super().run(prepared, out_dir, max_workers)
        last = out.series.records[-1]
        out.series.records[-1] = dataclasses.replace(last, mass=last.mass * (1.0 + self.drift))
        return out


def test_injected_mass_drift_counts_as_failed(tmp_path):
    clean = ShortEvolve48()
    [unit] = run.run_cycle(clean, clean.configs(1), 1, tmp_path)
    assert unit.failures == [] and unit.steps == 10

    drifting = ShortEvolve48(drift=1e-8)
    [unit] = run.run_cycle(drifting, drifting.configs(1), 1, tmp_path)
    assert len(unit.failures) == 1 and unit.failures[0].startswith("mass drift")


def test_wrappers_are_removed_before_untraced_runs(tmp_path):
    workload = ShortEvolve48()
    originals = {name: getattr(dipgpe, name) for name in ("evolve", "parse_config")}
    fftn = scipy_fft.fftn
    assert installed_wrappers() == []

    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        assert "dipgpe.grid._fft" in installed_wrappers()
        with pytest.raises(RuntimeError, match="wrappers installed"):
            run.untraced_cycle(workload, workload.configs(1), 1, tmp_path)
        [unit] = run.run_cycle(workload, workload.configs(1), 1, tmp_path)

    assert installed_wrappers() == []
    assert dipgpe.grid._fft is scipy_fft and scipy_fft.fftn is fftn
    assert {name: getattr(dipgpe, name) for name in originals} == originals
    metrics = tracer.layer_metrics(1)
    assert unit.failures == []
    assert metrics["propagator.steps"] == 10 and tracer.run_steps() == unit.steps
    assert tracer.escaped_transforms() == 0


def test_transform_outside_the_proxy_is_reported():
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        dipgpe.grid._fft.fftn(np.ones((4, 4), complex))
        assert tracer.escaped_transforms() == 0
        scipy_fft.ifftn(np.ones((4, 4), complex))
        np.fft.rfft(np.ones(8))
    assert tracer.escaped_transforms() == 2
