"""Seeded benchmark inputs: planes-style data and a LIBSVM text writer.

The benchmark owns its inputs so that a change to the program's own data
generators or writers cannot change what is measured. Nothing here
imports ``repro``.

Planes-style data (the paper's synthetic set): two Gaussian clusters on
either side of a random hyperplane through the origin, with a small
fraction of labels flipped so the problem is not perfectly separable.
Every array is drawn from ``numpy.random.default_rng([seed, stream])``,
so one seed gives the same training and test sets on every machine.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

__all__ = ["planes", "train_test", "write_libsvm"]

#: Streams of one seed: the hyperplane, the training set, the test set.
_PLANE, _TRAIN, _TEST = 0, 1, 2
#: Cluster offset from the hyperplane, cluster spread, flipped labels.
SEP, STD, FLIP = 1.3, 0.7, 0.01


def _normal(seed: int, d: int) -> np.ndarray:
    v = np.random.default_rng([seed, _PLANE]).standard_normal(d)
    return v / np.linalg.norm(v)


def planes(seed: int, stream: int, m: int, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """``m`` points in ``d`` dimensions with labels in {-1, +1}.

    Half the points sit around ``+SEP * n`` and half around ``-SEP * n``
    for the seed's unit normal ``n``, with spread ``STD``; a share
    ``FLIP`` of the labels are then flipped at random. Rows are shuffled
    so a prefix is a fair sample.
    """
    if m < 2 or d < 1:
        raise ValueError(f"planes needs m >= 2 and d >= 1, got m={m}, d={d}")
    rng = np.random.default_rng([seed, stream])
    y = np.where(np.arange(m) < m // 2, 1.0, -1.0)
    X = rng.standard_normal((m, d)) * STD + np.outer(y * SEP, _normal(seed, d))
    flipped = rng.random(m) < FLIP
    y = np.where(flipped, -y, y)
    order = rng.permutation(m)
    return X[order], y[order]


def train_test(
    seed: int, m_train: int, m_test: int, d: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Training and held-out sets drawn from one seed's hyperplane."""
    X, y = planes(seed, _TRAIN, m_train, d)
    Xt, yt = planes(seed, _TEST, m_test, d)
    return X, y, Xt, yt


def write_libsvm(path: Path, X: np.ndarray, y: np.ndarray) -> int:
    """Write ``(X, y)`` as a LIBSVM text file; returns the bytes written.

    Every feature is written (dense rows, 1-based indices) with 17
    significant digits, so the reader recovers the float64 values exactly.
    """
    lines = []
    for label, row in zip(y, X):
        feats = " ".join(f"{j}:{v:.17g}" for j, v in enumerate(row, start=1))
        lines.append(f"{int(label)} {feats}\n")
    data = "".join(lines).encode("ascii")
    Path(path).write_bytes(data)
    return len(data)
