"""Crossbar circuit substrate.

The crossbar array, differential pair, IR-drop models (fast ladder
decomposition and full nodal analysis), V/2 pulse planning, and
weight <-> conductance mapping.
"""

from repro.xbar.crossbar import IR_MODES, Crossbar
from repro.xbar.ir_drop import (
    IRDropDecomposition,
    column_ladder_solve,
    program_column_factors,
    program_factors,
    program_row_factors,
    read_attenuation_reference,
    read_column_gains,
    read_output_currents,
)
from repro.xbar.mapping import WeightScaler, split_signed
from repro.xbar.nodal import CrossbarNetwork, NodalSolution
from repro.xbar.pair import DifferentialCrossbar
from repro.xbar.programming import PulsePlan, execute_plan, plan_programming
from repro.xbar.tiling import TiledPair, split_rows

__all__ = [
    "IR_MODES",
    "Crossbar",
    "CrossbarNetwork",
    "DifferentialCrossbar",
    "IRDropDecomposition",
    "NodalSolution",
    "PulsePlan",
    "TiledPair",
    "WeightScaler",
    "column_ladder_solve",
    "execute_plan",
    "plan_programming",
    "program_column_factors",
    "program_factors",
    "program_row_factors",
    "read_attenuation_reference",
    "read_column_gains",
    "read_output_currents",
    "split_rows",
    "split_signed",
]
