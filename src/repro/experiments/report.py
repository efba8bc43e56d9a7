"""Combined evaluation report: run every experiment, render one text.

Used by the command-line interface (``python -m repro report``) and by
anyone who wants the whole evaluation regenerated in one call.  Each
section prints the same rows/series the paper's corresponding table or
figure reports.

Execution flows through :mod:`repro.runtime`: sections are cached in
the ambient artifact cache (keyed on experiment name, scale, image
size and package version), progress and wall times accumulate in the
ambient run log, and the report body embeds the log's *deterministic*
view -- what ran and what the cache served, never how fast -- so the
text is byte-identical at any ``--jobs`` value.
"""

from __future__ import annotations

import io
from typing import Callable

from repro.experiments.common import ExperimentScale
from repro.experiments.fig2_column import run_fig2
from repro.experiments.fig3_irdrop import run_fig3
from repro.experiments.fig4_vat_tradeoff import run_fig4
from repro.experiments.fig7_amp import run_fig7
from repro.experiments.fig8_adc import run_fig8
from repro.experiments.fig9_redundancy import run_fig9
from repro.experiments.table1_sizes import run_table1
from repro.runtime.cache import get_cache
from repro.runtime.telemetry import RunLog, resolve_run_log, use_run_log

__all__ = ["generate_report", "EXPERIMENT_RUNNERS"]


def _section_fig2(scale: ExperimentScale, image_size: int) -> str:
    result = run_fig2(scale)
    out = io.StringIO()
    out.write(f"({result.n_trials}-run Monte Carlo, 100-device column)\n")
    out.write(f"{'sigma':>6s} {'OLD err':>10s} {'CLD err':>10s}\n")
    for s, o, c in result.rows():
        out.write(f"{s:6.1f} {o:10.4f} {c:10.4f}\n")
    return out.getvalue()


def _section_fig3(scale: ExperimentScale, image_size: int) -> str:
    result = run_fig3()
    out = io.StringIO()
    out.write("(all-LRS worst case, r_wire = 2.5 Ohm)\n")
    out.write(f"{'rows':>6s} {'d skew':>8s} {'update ratio':>14s}\n")
    for n, s, u in zip(result.heights, result.d_skew,
                       result.update_ratio):
        out.write(f"{int(n):6d} {s:8.3f} {u:14.2e}\n")
    out.write(
        f"ladder vs nodal max rel error: "
        f"{result.ladder_vs_nodal_error:.2e}\n"
    )
    return out.getvalue()


def _section_fig4(scale: ExperimentScale, image_size: int) -> str:
    result = run_fig4(scale, image_size=image_size)
    out = io.StringIO()
    out.write(f"(sigma = {result.sigma})\n")
    out.write(
        f"{'gamma':>6s} {'train':>8s} {'test w/o var':>14s} "
        f"{'test w/ var':>13s}\n"
    )
    for g, tr, tc, ti in result.rows():
        out.write(f"{g:6.2f} {tr:8.3f} {tc:14.3f} {ti:13.3f}\n")
    out.write(f"best gamma: {result.best_gamma}\n")
    return out.getvalue()


def _section_fig7(scale: ExperimentScale, image_size: int) -> str:
    result = run_fig7(scale, image_size=image_size)
    out = io.StringIO()
    out.write(f"(sigma = {result.sigma})\n")
    out.write(
        f"{'gamma':>6s} {'train':>8s} {'before AMP':>12s} "
        f"{'after AMP':>11s}\n"
    )
    for g, tr, b, a in result.rows():
        out.write(f"{g:6.2f} {tr:8.3f} {b:12.3f} {a:11.3f}\n")
    out.write(
        f"optimal gamma: before {result.best_gamma_before}, "
        f"after {result.best_gamma_after}\n"
    )
    return out.getvalue()


def _section_fig8(scale: ExperimentScale, image_size: int) -> str:
    result = run_fig8(scale, image_size=image_size)
    out = io.StringIO()
    out.write(f"{'sigma':>6s} " + " ".join(
        f"{int(b)}-bit".rjust(8) for b in result.bits
    ) + "\n")
    for s, row in zip(result.sigmas, result.test_rate):
        out.write(f"{s:6.1f} " + " ".join(f"{r:8.3f}" for r in row) + "\n")
    out.write(f"saturation bits per sigma: {result.saturation_bits()}\n")
    return out.getvalue()


def _section_fig9(scale: ExperimentScale, image_size: int) -> str:
    result = run_fig9(scale, image_size=image_size)
    out = io.StringIO()
    out.write(
        f"{'sigma':>6s} {'OLD':>8s} {'CLD':>8s} | Vortex "
        + " ".join(f"p={int(p)}".rjust(8) for p in result.redundancy)
        + "\n"
    )
    for s, o, c, row in zip(result.sigmas, result.old_rate,
                            result.cld_rate, result.vortex_rate):
        out.write(
            f"{s:6.1f} {o:8.3f} {c:8.3f} |        "
            + " ".join(f"{v:8.3f}" for v in row) + "\n"
        )
    out.write(
        f"average Vortex gain: +{result.vortex_gain_over_old:.1f}pp vs "
        f"OLD, +{result.vortex_gain_over_cld:.1f}pp vs CLD\n"
    )
    return out.getvalue()


def _section_table1(scale: ExperimentScale, image_size: int) -> str:
    sizes = (28, 14, 7) if image_size == 28 else (14, 7)
    result = run_table1(scale, image_sizes=sizes)
    return result.table() + "\n"


EXPERIMENT_RUNNERS: dict[str, Callable[[ExperimentScale, int], str]] = {
    "fig2": _section_fig2,
    "fig3": _section_fig3,
    "fig4": _section_fig4,
    "fig7": _section_fig7,
    "fig8": _section_fig8,
    "fig9": _section_fig9,
    "table1": _section_table1,
}

_TITLES = {
    "fig2": "Fig. 2 - CLD vs OLD column-training discrepancy",
    "fig3": "Fig. 3 - IR-drop decomposition",
    "fig4": "Fig. 4 - VAT trade-off",
    "fig7": "Fig. 7 - effectiveness of AMP",
    "fig8": "Fig. 8 - ADC resolution vs test rate",
    "fig9": "Fig. 9 - design redundancy + headline comparison",
    "table1": "Table 1 - Vortex vs CLD at different crossbar sizes",
}


def _render_section(
    name: str, scale: ExperimentScale, image_size: int, log: RunLog
) -> str:
    """One section's body, via the artifact cache when possible."""
    cache = get_cache()
    key = ""
    if cache is not None:
        key = cache.make_key(
            "section",
            {"name": name, "scale": scale, "image_size": image_size},
        )
        with log.time_experiment(name) as record:
            record.cache_key = key
            stored = cache.get_json(key)
            if stored is not None:
                record.cache_hit = True
                return stored["text"]
            body = EXPERIMENT_RUNNERS[name](scale, image_size)
            cache.put_json(key, {"text": body})
        return body
    with log.time_experiment(name) as record:
        record.cache_key = key
        return EXPERIMENT_RUNNERS[name](scale, image_size)


def generate_report(
    scale: ExperimentScale | None = None,
    image_size: int = 14,
    experiments: tuple[str, ...] | None = None,
    run_log: RunLog | None = None,
) -> str:
    """Run the selected experiments and render one combined report.

    Args:
        scale: Experiment scale; the quick preset when omitted.
        image_size: Benchmark resolution for the network experiments.
        experiments: Subset of :data:`EXPERIMENT_RUNNERS` keys; all of
            them when omitted.
        run_log: Telemetry sink; falls back to the ambient run log, or
            a private one.  Its deterministic summary is embedded as
            the report's final section; wall times stay out of the
            body so the text is identical at any worker count.

    Returns:
        The report text.
    """
    scale = scale if scale is not None else ExperimentScale.quick()
    names = experiments if experiments is not None else tuple(
        EXPERIMENT_RUNNERS
    )
    unknown = set(names) - set(EXPERIMENT_RUNNERS)
    if unknown:
        raise ValueError(
            f"unknown experiments {sorted(unknown)}; available: "
            f"{sorted(EXPERIMENT_RUNNERS)}"
        )
    log = resolve_run_log(run_log)
    out = io.StringIO()
    out.write("Vortex reproduction - evaluation report\n")
    out.write(
        f"(scale: {scale.n_train} train / {scale.n_test} test samples, "
        f"{scale.mc_trials} fabrication draws, {image_size}x{image_size} "
        "images)\n"
    )
    # Install the log as ambient so Monte-Carlo dispatches deep inside
    # the drivers record their batches into the same place.
    with use_run_log(log):
        for name in names:
            body = _render_section(name, scale, image_size, log)
            out.write(f"\n=== {_TITLES[name]} ===\n")
            out.write(body)
    out.write("\n=== run log ===\n")
    out.write(log.render_summary())
    out.write("\n")
    return out.getvalue()
