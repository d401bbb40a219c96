"""Configuration and result types shared by all P-Tucker engines."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VARIANTS = ("default", "cache", "approx")


@dataclass(frozen=True)
class PTuckerConfig:
    """Hyper-parameters of Algorithm 2.

    Attributes:
        ranks: core dimensionality (J_1, ..., J_N).
        lam: L2 regularization λ (paper default 0.01).
        max_iters: iteration cap (paper default 20).
        tol: relative reconstruction-error convergence threshold.
        variant: "default" (P-Tucker), "cache" (P-Tucker-Cache) or
            "approx" (P-Tucker-Approx).
        truncation_rate: p, fraction of core entries removed per iteration
            (approx variant only; paper default 0.2).
        seed: RNG seed for the uniform(0,1) initialization.

    The Spark partition count is not a hyper-parameter: it belongs to the
    ``ModePartitionedTensor`` an engine reads.
    """

    ranks: tuple[int, ...]
    lam: float = 0.01
    max_iters: int = 20
    tol: float = 1e-4
    variant: str = "default"
    truncation_rate: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "approx" and not 0.0 < self.truncation_rate < 1.0:
            raise ValueError("truncation_rate must be in (0, 1)")
        if any(j < 1 for j in self.ranks):
            raise ValueError("ranks must be positive")
        # Theorem 1: B + λI is positive definite only for λ > 0.
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass
class PTuckerResult:
    """Output of a factorization run.

    ``factors``/``core`` are the final, QR-orthogonalized state
    (Algorithm 2 lines 8-11); ``errors[t]`` is the reconstruction error
    (Eq. 6) after iteration t's factor updates; ``iter_times[t]`` the
    wall-clock seconds of iteration t (the paper's reported metric is
    their mean).

    For the approx variant, ``errors[t]`` is the error of the model
    *before* iteration t's core truncation: the updated factors with the
    core the iteration started from. So ``final_error`` describes the
    pre-truncation model, not the returned one.
    """

    factors: list[np.ndarray]
    core: np.ndarray
    errors: list[float] = field(default_factory=list)
    iter_times: list[float] = field(default_factory=list)
    converged: bool = False
    core_nnz_history: list[int] = field(default_factory=list)

    @property
    def final_error(self) -> float:
        """Reconstruction error after the last iteration."""
        return self.errors[-1]

    @property
    def n_iters(self) -> int:
        """Number of ALS iterations actually run."""
        return len(self.errors)

    @property
    def mean_iter_time(self) -> float:
        """Average elapsed time per iteration — the paper's speed metric."""
        return float(np.mean(self.iter_times)) if self.iter_times else 0.0

    def fit(self, x_norm: float) -> float:
        """fit = 1 − ‖X − X'‖/‖X‖ (Section IV-C)."""
        return 1.0 - self.final_error / x_norm


def converged(errors: list[float], tol: float) -> bool:
    """Relative-change convergence test on the error sequence."""
    if len(errors) < 2:
        return False
    prev, cur = errors[-2], errors[-1]
    if prev == 0:
        return True
    return abs(prev - cur) / prev < tol
