"""Expected-improvement Bayesian optimization over a unit box.

The optimizer minimizes a black-box objective ``f : [0, 1]^d -> R``:
random initial design, GP surrogate, expected improvement maximized over a
random candidate pool (plus local perturbations of the incumbent).  This is
the acquisition loop Aquatope runs over workflow configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bayesopt.gp import GaussianProcess
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class BOResult:
    """Outcome of a BO run."""

    best_x: np.ndarray
    best_y: float
    xs: np.ndarray
    ys: np.ndarray


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI for *minimization* with exploration margin ``xi``."""
    from scipy.stats import norm  # lazy: only aquatope runs BO

    improvement = best - mean - xi
    z = improvement / np.clip(std, 1e-12, None)
    return improvement * norm.cdf(z) + std * norm.pdf(z)


class BayesianOptimizer:
    """Minimize a black-box function over ``[0, 1]^dim``."""

    def __init__(
        self,
        dim: int,
        *,
        n_initial: int = 8,
        n_candidates: int = 256,
        length_scale: float = 0.3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive("dim", dim)
        check_positive("n_initial", n_initial)
        check_positive("n_candidates", n_candidates)
        self.dim = int(dim)
        self.n_initial = int(n_initial)
        self.n_candidates = int(n_candidates)
        self.length_scale = float(length_scale)
        self._rng = ensure_rng(seed)

    def minimize(
        self, objective: Callable[[np.ndarray], float], n_iter: int = 30
    ) -> BOResult:
        """Run the EI loop for ``n_iter`` evaluations after the design."""
        check_positive("n_iter", n_iter)
        xs = list(self._rng.random((self.n_initial, self.dim)))
        ys = [float(objective(x)) for x in xs]
        for _ in range(n_iter):
            gp = GaussianProcess(length_scale=self.length_scale).fit(
                np.array(xs), np.array(ys)
            )
            best = min(ys)
            pool = self._rng.random((self.n_candidates, self.dim))
            incumbent = xs[int(np.argmin(ys))]
            local = np.clip(
                incumbent + self._rng.normal(0, 0.1, (self.n_candidates // 4, self.dim)),
                0.0,
                1.0,
            )
            cand = np.vstack([pool, local])
            mean, std = gp.predict(cand)
            ei = expected_improvement(mean, std, best)
            x_next = cand[int(np.argmax(ei))]
            xs.append(x_next)
            ys.append(float(objective(x_next)))
        best_idx = int(np.argmin(ys))
        return BOResult(
            best_x=np.array(xs[best_idx]),
            best_y=ys[best_idx],
            xs=np.array(xs),
            ys=np.array(ys),
        )
