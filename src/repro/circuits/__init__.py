"""Peripheral circuit substrate: ADC and current sensing."""

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense

__all__ = ["ADC", "CurrentSense"]
