"""Adaptive operator-rate control (Hong, Wang & Chen 2000; paper Section 4.3).

Setting the probability of each of several mutation (or crossover) operators
by hand is difficult, so the paper adapts them online.  For every operator
``op_i`` applied ``N_i`` times during a generation, the *profit* is the mean
normalised fitness progress of its applications::

    profit_i = (sum_j progress_ij) / N_i

The new rate of each operator is then its share of the total profit, scaled
to the global rate and floored at δ::

    rate_i = profit_i / sum_k profit_k * (global_rate - m * δ) + δ

so that every operator keeps at least rate δ (and therefore keeps being
sampled, which lets it recover if it becomes useful later) and all rates sum
to the global rate.  When no operator made any progress during a generation —
common late in the run — the rates are left unchanged.

*Progress* is measured on fitnesses normalised within the child's
sub-population (best ↦ 1, worst ↦ 0), because raw fitness values of
different haplotype sizes live on different scales (Section 4.3.1); the
engine computes the normalisation and hands this controller plain progress
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .operators.base import OperatorApplication

__all__ = ["AdaptiveOperatorController", "OperatorRateSnapshot"]


@dataclass(frozen=True)
class OperatorRateSnapshot:
    """The operator rates and profits at the end of one generation."""

    generation: int
    rates: dict[str, float]
    profits: dict[str, float]
    n_applications: dict[str, int]


class AdaptiveOperatorController:
    """Adapt the rates of a family of operators from their measured progress.

    Parameters
    ----------
    operator_names:
        Names of the operators sharing the global rate (e.g. the three
        mutations, or the two crossovers).
    global_rate:
        The fixed total rate the operator rates always sum to.
    min_rate:
        The floor δ each operator keeps.
    adaptive:
        When ``False`` the controller keeps the uniform initial rates forever
        (used by the Section 5.2 ablation schemes).
    """

    def __init__(
        self,
        operator_names: Sequence[str],
        *,
        global_rate: float,
        min_rate: float = 0.05,
        adaptive: bool = True,
    ) -> None:
        names = list(dict.fromkeys(operator_names))
        if not names:
            raise ValueError("at least one operator is required")
        if len(names) != len(list(operator_names)):
            raise ValueError("operator names must be unique")
        if not 0.0 < global_rate <= 1.0:
            raise ValueError("global_rate must be in (0, 1]")
        if min_rate < 0:
            raise ValueError("min_rate must be non-negative")
        if len(names) * min_rate >= global_rate:
            raise ValueError(
                f"min_rate={min_rate} leaves no adaptive share of global_rate={global_rate} "
                f"for {len(names)} operators"
            )
        self._names = names
        self.global_rate = float(global_rate)
        self.min_rate = float(min_rate)
        self.adaptive = bool(adaptive)
        # the paper initialises every operator at global_rate / m
        self._rates = {name: self.global_rate / len(names) for name in names}
        self._progress: dict[str, list[float]] = {name: [] for name in names}
        self._history: list[OperatorRateSnapshot] = []
        self._generation = 0

    # ------------------------------------------------------------------ #
    @property
    def operator_names(self) -> tuple[str, ...]:
        return tuple(self._names)

    @property
    def rates(self) -> dict[str, float]:
        """Current operator rates (they always sum to ``global_rate``)."""
        return dict(self._rates)

    @property
    def history(self) -> tuple[OperatorRateSnapshot, ...]:
        return tuple(self._history)

    def probability_of(self, name: str) -> float:
        """Sampling probability of an operator *within its family* (rates normalised to 1)."""
        if name not in self._rates:
            raise KeyError(f"unknown operator {name!r}")
        return self._rates[name] / self.global_rate

    def sample(self, rng: np.random.Generator, *, allowed: Iterable[str] | None = None) -> str:
        """Draw an operator name proportionally to the current rates.

        Parameters
        ----------
        rng:
            Random generator.
        allowed:
            Optional subset of operators that are applicable right now (e.g.
            the reduction mutation cannot act on a minimum-size haplotype);
            rates are re-normalised over this subset.
        """
        names = self._names if allowed is None else [n for n in self._names if n in set(allowed)]
        if not names:
            raise ValueError("no applicable operator to sample from")
        weights = np.asarray([self._rates[n] for n in names], dtype=np.float64)
        total = weights.sum()
        if total <= 0:  # pragma: no cover - rates are floored above zero
            weights = np.ones(len(names))
            total = float(len(names))
        return str(rng.choice(names, p=weights / total))

    # ------------------------------------------------------------------ #
    def record(self, application: OperatorApplication) -> None:
        """Record the progress of one operator application."""
        if application.operator not in self._progress:
            raise KeyError(f"unknown operator {application.operator!r}")
        self._progress[application.operator].append(max(float(application.progress), 0.0))

    def record_many(self, applications: Iterable[OperatorApplication]) -> None:
        for application in applications:
            self.record(application)

    def end_generation(self) -> OperatorRateSnapshot:
        """Recompute the rates from this generation's recorded progress."""
        self._generation += 1
        profits = {
            name: (float(np.mean(values)) if values else 0.0)
            for name, values in self._progress.items()
        }
        n_applications = {name: len(values) for name, values in self._progress.items()}
        if self.adaptive:
            total_profit = sum(profits.values())
            if total_profit > 0:
                adaptive_share = self.global_rate - len(self._names) * self.min_rate
                self._rates = {
                    name: profits[name] / total_profit * adaptive_share + self.min_rate
                    for name in self._names
                }
            # when nothing made progress, keep the previous rates unchanged
        snapshot = OperatorRateSnapshot(
            generation=self._generation,
            rates=self.rates,
            profits=profits,
            n_applications=n_applications,
        )
        self._history.append(snapshot)
        self._progress = {name: [] for name in self._names}
        return snapshot
