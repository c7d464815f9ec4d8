"""Shared helpers for the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hdnorm import (
    CovSpec,
    DataMatrix,
    McSettings,
    Scenario,
    composite_test,
    sample_scenario,
)
from hdnorm import montecarlo
from hdnorm import rng as hrng
from hdnorm._cpus import BLAS_THREAD_VARS
from hdnorm.methods import lookup_method
from hdnorm.montecarlo import composite_from_summary
from hdnorm.radii import radial_summary

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "hdnorm" / "schemas"
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report-v1.schema.json").read_text())


def gaussian_data(seed: int, n: int, d: int) -> DataMatrix:
    """Standard normal sample from a keyed stream (fast, reproducible)."""
    gen = hrng.substream(seed, hrng.DOMAIN_DATA, n, d)
    return DataMatrix.from_array(hrng.standard_normal(gen, (n, d)))


def random_orthogonal(gen: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish orthogonal matrix via QR with a fixed sign convention."""
    Q, R = np.linalg.qr(gen.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def fresh_process(code, *args, **env) -> subprocess.CompletedProcess:
    """``python -c code *args`` run to its end in a new process on these sources.

    The BLAS thread-count variables are unset unless given in ``env``.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=120)


def fresh_python(code, *args, **env):
    """stdout of ``fresh_process``, which must exit 0."""
    done = fresh_process(code, *args, **env)
    done.check_returncode()
    return done.stdout.strip()


def similarity_transform(values: np.ndarray, sigma: float, V: np.ndarray,
                         w: np.ndarray) -> np.ndarray:
    """Apply x -> sigma * V x + w to every row."""
    return sigma * values @ V.T + w


def rejection_rate(scenario: Scenario, replications: int, settings: McSettings,
                   seed: int, method: str = "composite") -> float:
    """Empirical rejection rate of a decision method over fresh data draws."""
    rule = lookup_method(method).at(scenario.n, settings)
    rejected = 0
    for r in range(replications):
        gen = hrng.substream(seed, hrng.DOMAIN_DATA, 0, r)
        X = sample_scenario(scenario, gen)
        rs = radial_summary(X)
        if composite_from_summary(rs, rule).reject:
            rejected += 1
    return rejected / replications


def clear_band_memos() -> None:
    """Forget every memoised sorted null sample, so the next band is drawn."""
    montecarlo._sorted_null.cache_clear()


def null_scenario(n: int, d: int) -> Scenario:
    return Scenario(family="null_gaussian", n=n, d=d, cov=CovSpec("identity", d))


@pytest.fixture
def rng_fixture():
    return np.random.default_rng(20240815)
