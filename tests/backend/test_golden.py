"""Kernel bit-identity against captured pre-refactor outputs.

``golden_pre_refactor.npz`` was written by
``scripts/make_backend_golden.py`` *before* the kernels were routed
through an array-namespace shim (since removed again).  Re-running the
same capture on today's code must reproduce every array byte-for-byte:
both refactors are refactors, not numerics changes.  If a future PR intentionally moves
reference numerics, it must regenerate the goldens and say so.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden_pre_refactor.npz"


def _load_capture_module():
    spec = importlib.util.spec_from_file_location(
        "make_backend_golden",
        REPO_ROOT / "scripts" / "make_backend_golden.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fresh():
    return _load_capture_module().capture()


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {name: data[name] for name in data.files}


def test_golden_file_has_the_full_capture_set(golden):
    assert set(golden) == {
        "pair_x", "pair_matvec_ideal", "pair_matvec_reference",
        "pair_read_pos_ideal", "tiled_x", "tiled_matvec",
        "rates_labels", "rates", "stacked_thetas", "mc_batched",
        "serve_x", "serve_scores",
    }


def test_numpy_path_is_bit_identical_to_pre_refactor(golden, fresh):
    assert set(fresh) == set(golden)
    mismatched = [
        name for name in sorted(golden)
        if not np.array_equal(golden[name], fresh[name])
    ]
    assert mismatched == [], (
        "kernel numerics drifted from pre-refactor capture: "
        f"{mismatched}; if intentional, regenerate with "
        "scripts/make_backend_golden.py and document the change"
    )
