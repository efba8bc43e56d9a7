"""Dataset substrate: synthetic MNIST-like benchmark and under-sampling."""

from repro.data.datasets import N_CLASSES, Dataset, make_dataset
from repro.data.glyphs import GLYPH_COLS, GLYPH_ROWS, GLYPHS, glyph_bitmaps
from repro.data.mnist_like import IMAGE_SIZE, DigitRenderer, RenderParams
from repro.data.sampling import undersample, undersample_flat

__all__ = [
    "GLYPHS",
    "GLYPH_COLS",
    "GLYPH_ROWS",
    "IMAGE_SIZE",
    "N_CLASSES",
    "Dataset",
    "DigitRenderer",
    "RenderParams",
    "glyph_bitmaps",
    "make_dataset",
    "undersample",
    "undersample_flat",
]
