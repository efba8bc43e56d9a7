"""The per-dataset memo of cold-start VAT trainings.

Fig. 4, Fig. 7 and Fig. 8 train overlapping VAT problems on one
dataset; :func:`repro.experiments.common.train_vat_once` trains each
distinct one once per dataset memo.  The memo must not change a byte
of the report, and must be dropped with the dataset memo so a cold
report trains everything again.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.vat as vat
import repro.experiments.fig4_vat_tradeoff as fig4
from repro.experiments import ExperimentScale, common
from repro.experiments.report import generate_report
from repro.runtime.config import RuntimeConfig, use_runtime
from repro.runtime.telemetry import RunLog

# Fig. 4 and Fig. 7 share the grid at sigma 0.6; Fig. 8 trains gamma 0.3
# at sigmas 0.4, 0.6 and 0.8, of which sigma 0.6 is a Fig. 4 problem.
SCALE = ExperimentScale(
    n_train=120, n_test=60, mc_trials=2, column_mc_trials=4, epochs=20,
    gammas=(0.0, 0.3), n_injections=2, seed=23,
)
EXPERIMENTS = ("fig4", "fig7", "fig8")
DISTINCT_TRAININGS = 4
# Monte-Carlo trials of one report: 2 draws for Fig. 7 and 2 per sigma
# for Fig. 8, plus the 2 Fig. 4 grid points.
TOTAL_TRIALS = 10


def _report(jobs: int = 1, experiments=EXPERIMENTS) -> tuple[str, RunLog]:
    common._cached_dataset.cache_clear()
    log = RunLog()
    with use_runtime(RuntimeConfig(jobs=jobs, use_cache=False)):
        text = generate_report(
            scale=SCALE, image_size=7, experiments=experiments, run_log=log,
        )
    return text, log


def _sections(text: str) -> list[str]:
    return text.split("\n=== ")[1:-1]


@pytest.fixture
def trainings(monkeypatch):
    """Configs of every ``train_vat`` call, in the parent process."""
    calls = []
    raw = vat.train_vat

    def counted(x, labels, n_classes, config=None, w_init=None):
        calls.append(config)
        return raw(x, labels, n_classes, config, w_init)

    monkeypatch.setattr(vat, "train_vat", counted)
    monkeypatch.setattr(fig4, "train_vat", counted)
    return calls


class TestTrainingMemo:
    def test_each_distinct_problem_trains_once(self, trainings):
        _report()
        assert len(trainings) == DISTINCT_TRAININGS
        assert len(set(trainings)) == DISTINCT_TRAININGS

    def test_clearing_the_dataset_memo_drops_the_trainings(self, trainings):
        _report()
        _report()
        assert len(trainings) == 2 * DISTINCT_TRAININGS

    def test_fig4_after_fig7_trains_nothing_twice(self, trainings):
        # Fig. 4 reuses the grid Fig. 7 trained, as Fig. 7 reuses Fig. 4's.
        _report(experiments=("fig4", "fig7"))
        forward = len(trainings)
        trainings.clear()
        _report(experiments=("fig7", "fig4"))
        assert len(trainings) == forward == len(SCALE.gammas)

    def test_fig4_after_fig7_identical_across_jobs(self):
        reverse = ("fig7", "fig4")
        serial = _sections(_report(jobs=1, experiments=reverse)[0])
        parallel = _sections(_report(jobs=2, experiments=reverse)[0])
        forward = _sections(_report(experiments=reverse[::-1])[0])
        assert serial == parallel == forward[::-1]

    def test_memo_hits_are_the_cold_trainings(self):
        text, _ = _report()
        cold = [
            section
            for name in EXPERIMENTS
            for section in _sections(_report(experiments=(name,))[0])
        ]
        assert _sections(text) == cold

    def test_report_identical_across_jobs(self):
        serial, serial_log = _report(jobs=1)
        parallel, parallel_log = _report(jobs=2)
        assert serial == parallel
        assert serial_log.total_trials == TOTAL_TRIALS
        assert parallel_log.total_trials == TOTAL_TRIALS

    def test_memoised_weights_are_read_only(self):
        common._cached_dataset.cache_clear()
        cfg = vat.VATConfig(gamma=0.3, sigma=0.6, gdt=SCALE.gdt())
        first = common.train_vat_once(SCALE, 7, cfg)
        assert common.train_vat_once(SCALE, 7, cfg) is first
        with pytest.raises(ValueError):
            first.weights[0, 0] = np.inf
