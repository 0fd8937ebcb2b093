"""Non-negative linear regression via the Lawson-Hanson active-set method.

Features are centered and scaled to unit variance before the constrained fit
so coefficient magnitudes are comparable across questions; the intercept is
the label mean and stays unconstrained. Features that predict the target
inversely end up with coefficient exactly zero.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import write_atomic

logger = logging.getLogger(__name__)

DUAL_TOLERANCE = 1e-10
ITERATION_FACTOR = 10


@dataclass
class DesignMatrix:
    X: np.ndarray  # (n, p)
    y: np.ndarray  # (n,)
    feature_names: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        n, p = self.X.shape
        if n < 1 or p < 1:
            raise ValueError("need at least one row and one feature")
        if len(self.feature_names) != p:
            raise ValueError("feature_names length must match column count")
        if self.y.shape != (n,):
            raise ValueError("y length must match row count")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("design matrix contains non-finite values")


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve min ||Ax - b||^2 subject to x >= 0 (Lawson-Hanson active set).

    Pivot choice is deterministic: largest dual component, ties by lowest
    index, so repeated fits are bit-identical.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    p = A.shape[1]
    x = np.zeros(p)
    passive = np.zeros(p, dtype=bool)

    for _ in range(ITERATION_FACTOR * p):
        w = A.T @ (b - A @ x)  # dual: gradient of the residual
        candidates = ~passive
        if not candidates.any() or np.max(w[candidates]) <= DUAL_TOLERANCE:
            break
        # argmax over zero set, ties resolved by lowest index
        masked = np.where(candidates, w, -np.inf)
        j = int(np.argmax(masked))
        passive[j] = True

        while True:
            z = np.zeros(p)
            cols = np.flatnonzero(passive)
            z[cols], *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if z[cols].min() > 0:
                x = z
                break
            # Step toward z only as far as feasibility allows, then shrink
            # the passive set.
            blocking = passive & (z <= 0)
            alpha = np.min(x[blocking] / (x[blocking] - z[blocking]))
            x = x + alpha * (z - x)
            passive &= x > DUAL_TOLERANCE
            x[~passive] = 0.0
    return x


@dataclass
class NNLSModel:
    feature_names: list[str]
    coefficients: np.ndarray  # all >= 0
    intercept: float
    shift: np.ndarray  # per-feature center applied at fit time
    scale: np.ndarray  # per-feature divisor, > 0

    def predict(self, features: Sequence[float]) -> float:
        vec = np.asarray(features, dtype=np.float64)
        if vec.shape != (len(self.feature_names),):
            raise ValueError(
                f"expected {len(self.feature_names)} features, got {vec.shape}"
            )
        # A one-row matrix product: a 1-D dot product may round differently.
        row = (vec[None, :] - self.shift) / self.scale
        return float(self.intercept + (row @ self.coefficients)[0])

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        payload = {
            "feature_names": self.feature_names,
            "coefficients": self.coefficients.tolist(),
            "intercept": self.intercept,
            "shift": self.shift.tolist(),
            "scale": self.scale.tolist(),
        }
        if extra:
            payload.update(extra)
        write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "NNLSModel":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            feature_names=data["feature_names"],
            coefficients=np.array(data["coefficients"]),
            intercept=data["intercept"],
            shift=np.array(data["shift"]),
            scale=np.array(data["scale"]),
        )


def fit_nnls(design: DesignMatrix) -> NNLSModel:
    """Fit non-negative coefficients on centered, unit-variance features.

    Zero-variance features are excluded (coefficient 0) with a warning.
    """
    n, p = design.X.shape
    if n < p:
        logger.warning("underdetermined fit: %d rows < %d features", n, p)

    shift = design.X.mean(axis=0)
    scale = design.X.std(axis=0)
    usable = scale > 0
    if not usable.all():
        for name in np.array(design.feature_names)[~usable]:
            logger.warning("constant feature %s excluded from fit", name)
    safe_scale = np.where(usable, scale, 1.0)

    Xs = (design.X - shift) / safe_scale
    ybar = float(design.y.mean())
    yc = design.y - ybar

    coefficients = np.zeros(p)
    cols = np.flatnonzero(usable)
    if cols.size:
        coefficients[cols] = nnls(Xs[:, cols], yc)
    return NNLSModel(
        feature_names=list(design.feature_names),
        coefficients=coefficients,
        intercept=ybar,
        shift=shift,
        scale=safe_scale,
    )

