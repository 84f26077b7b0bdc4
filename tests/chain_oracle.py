"""Whole 2x2 chain matrices of single transducer segments.

The package never forms them: the design loop propagates only row 0 of
the chain product.  The tests compose them to check the segment terms
that :class:`sppal.transducer.StackChain` is built from.
"""

from dataclasses import replace

import numpy as np

from sppal.transducer import _cos_sin, _elastic_wave, _piezo_chain


def segment_matrix(seg, f) -> np.ndarray:
    """Chain matrix of a segment at frequency grid ``f`` (piezo included)."""
    omega = 2.0 * np.pi * np.atleast_1d(np.asarray(f, dtype=float))
    if seg.is_piezo:
        t00, t01, t10, t11 = _piezo_chain(seg, omega)[:4]
    else:
        k, i_zc, i_over_zc = _elastic_wave(seg, omega)
        cos, sin = _cos_sin(k.real * seg.length, k.imag * seg.length)
        t00, t01, t10, t11 = cos, i_zc * sin, i_over_zc * sin, cos
    return np.stack([np.stack([t00, t01], axis=-1),
                     np.stack([t10, t11], axis=-1)], axis=-2)


def split(seg, fraction: float) -> tuple:
    """Two segments, ``seg`` cut at ``fraction`` of its length, whose
    chain equals its own."""
    return (replace(seg, length=seg.length * fraction),
            replace(seg, length=seg.length * (1.0 - fraction)))
