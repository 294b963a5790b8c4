"""CLUMP: contingency-table association statistics (Sham & Curtis, 1995).

CLUMP assesses "the significance of the departure of observed values in a
contingency table from the expected values conditional on the marginal
totals" for a 2 × m case/control table with potentially many sparse columns.
It reports four statistics:

* **T1** — the ordinary Pearson chi-square of the raw 2 × m table.  This is
  the statistic the paper uses as the haplotype fitness ("a good haplotype is
  an haplotype that is highly correlated with the disease, which corresponds
  to a high value").
* **T2** — the Pearson chi-square of the table after pooling columns with
  small expected counts (the "clumped" table).
* **T3** — the largest chi-square among the 2 × 2 tables obtained by comparing
  each column against the sum of all the others.
* **T4** — the largest chi-square among the 2 × 2 tables obtained by pooling
  *any* subset of columns against the rest.  The original program finds this
  partition heuristically; we use the standard orderings heuristic: columns
  are sorted by their affected/total ratio and every prefix split of that
  order is examined (the optimal two-group split of a 2 × m table is always a
  prefix of this order for the chi-square criterion).

Because T3 and T4 are maxima over many correlated tests, their nominal
chi-square p-values are anti-conservative; CLUMP therefore estimates
significance by Monte-Carlo simulation of random tables with the same
marginal totals, which :func:`monte_carlo_p_values` reproduces.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .chi2 import Chi2Result, pearson_chi2
from .contingency import ContingencyTable

__all__ = [
    "ClumpResult",
    "t1_statistic",
    "t2_statistic",
    "t3_statistic",
    "t4_statistic",
    "clump_statistics",
    "simulate_table_with_margins",
    "monte_carlo_p_values",
]


#: The statistics of a table with no counts, which carries no evidence: every
#: individual lacks a genotype at some SNP of the haplotype (a failed SNP).
_NO_EVIDENCE = Chi2Result(statistic=0.0, df=0)

_STATISTICS = ("t1", "t2", "t3", "t4")


class ClumpResult:
    """The four CLUMP statistics of a table (and their nominal chi-square results).

    Each statistic is computed on first access and then kept: the GA's
    fitness reads exactly one of them, while reports read all four.
    """

    def __init__(self, table: ContingencyTable, *, min_expected: float = 5.0) -> None:
        self.table = table
        self.min_expected = min_expected

    @cached_property
    def t1(self) -> Chi2Result:
        return t1_statistic(self.table)

    @cached_property
    def t2(self) -> Chi2Result:
        return t2_statistic(self.table, min_expected=self.min_expected)

    @cached_property
    def t3(self) -> Chi2Result:
        return t3_statistic(self.table)

    @cached_property
    def t4(self) -> Chi2Result:
        return t4_statistic(self.table)

    def statistic(self, name: str) -> float:
        """Value of one of the statistics by name (``"t1"`` … ``"t4"``)."""
        name = name.lower()
        if name not in _STATISTICS:
            raise ValueError(f"unknown CLUMP statistic {name!r}")
        return float(getattr(self, name).statistic)


def t1_statistic(table: ContingencyTable) -> Chi2Result:
    """T1: Pearson chi-square of the raw table."""
    if table.total <= 0:
        return _NO_EVIDENCE
    return pearson_chi2(table)


def t2_statistic(table: ContingencyTable, *, min_expected: float = 5.0) -> Chi2Result:
    """T2: Pearson chi-square after clumping rare columns together."""
    if table.total <= 0:
        return _NO_EVIDENCE
    return pearson_chi2(table.clump_rare_columns(min_expected))


def _two_by_two_chi2(a: float, b: float, c: float, d: float) -> float:
    """Chi-square of the 2×2 table [[a, b], [c, d]] (0 when a margin is empty)."""
    n = a + b + c + d
    if n <= 0:
        return 0.0
    row1, row2 = a + b, c + d
    col1, col2 = a + c, b + d
    denom = row1 * row2 * col1 * col2
    if denom <= 0:
        return 0.0
    return float(n * (a * d - b * c) ** 2 / denom)


def t3_statistic(table: ContingencyTable) -> Chi2Result:
    """T3: maximum chi-square of each column tested against all the others pooled."""
    if table.total <= 0:
        return _NO_EVIDENCE
    table = table.drop_empty_columns()
    counts = table.counts
    row_totals = table.row_totals
    best = 0.0
    for j in range(table.n_columns):
        a = counts[0, j]
        c = counts[1, j]
        b = row_totals[0] - a
        d = row_totals[1] - c
        best = max(best, _two_by_two_chi2(a, b, c, d))
    return Chi2Result(statistic=best, df=1)


def t4_statistic(table: ContingencyTable) -> Chi2Result:
    """T4: maximum 2×2 chi-square over column subsets pooled against the rest.

    Columns are ordered by their affected proportion and every prefix split of
    that order is evaluated; this examines ``m - 1`` candidate clumpings and
    contains the chi-square-optimal bipartition.
    """
    if table.total <= 0:
        return _NO_EVIDENCE
    table = table.drop_empty_columns()
    counts = table.counts
    if table.n_columns < 2:
        return Chi2Result(statistic=0.0, df=1)
    column_totals = table.column_totals
    with np.errstate(invalid="ignore", divide="ignore"):
        affected_ratio = np.where(column_totals > 0, counts[0] / column_totals, 0.0)
    order = np.argsort(affected_ratio)[::-1]
    sorted_counts = counts[:, order]
    cum = np.cumsum(sorted_counts, axis=1)
    row_totals = table.row_totals
    best = 0.0
    for split in range(table.n_columns - 1):
        a = cum[0, split]
        c = cum[1, split]
        b = row_totals[0] - a
        d = row_totals[1] - c
        best = max(best, _two_by_two_chi2(a, b, c, d))
    return Chi2Result(statistic=best, df=1)


def clump_statistics(table: ContingencyTable, *, min_expected: float = 5.0) -> ClumpResult:
    """The four CLUMP statistics of a table, each computed when first read."""
    return ClumpResult(table, min_expected=min_expected)


def simulate_table_with_margins(
    row_totals: np.ndarray,
    column_probabilities: np.ndarray,
    rng: np.random.Generator,
) -> ContingencyTable:
    """Simulate a random 2 × m table under the null hypothesis.

    Following the original CLUMP program, null tables are generated by
    allocating each row's total independently to the columns with
    probabilities given by the pooled column proportions (multinomial
    sampling conditional on the row totals).
    """
    row_totals = np.asarray(np.rint(row_totals), dtype=np.int64)
    column_probabilities = np.asarray(column_probabilities, dtype=np.float64)
    if np.any(row_totals < 0):
        raise ValueError("row totals must be non-negative")
    total_p = column_probabilities.sum()
    if total_p <= 0:
        raise ValueError("column probabilities must not all be zero")
    p = column_probabilities / total_p
    rows = [rng.multinomial(int(r), p) for r in row_totals]
    return ContingencyTable(np.vstack(rows).astype(np.float64))


def monte_carlo_p_values(
    table: ContingencyTable,
    *,
    n_simulations: int = 1000,
    min_expected: float = 5.0,
    seed: int | np.random.Generator | None = 0,
) -> dict[str, float]:
    """Monte-Carlo p-values of the four CLUMP statistics.

    The empirical p-value of each statistic is ``(1 + #{simulated >= observed})
    / (1 + n_simulations)`` — the add-one rule guarantees valid (never zero)
    p-values.  A table with no counts carries no evidence: every p-value is 1.
    """
    if n_simulations <= 0:
        raise ValueError("n_simulations must be positive")
    if table.total <= 0:
        return {k: 1.0 for k in _STATISTICS}
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    table = table.drop_empty_columns()
    observed = clump_statistics(table, min_expected=min_expected)
    observed_values = {k: observed.statistic(k) for k in _STATISTICS}
    exceed = {k: 0 for k in observed_values}
    row_totals = table.row_totals
    column_p = table.column_totals / table.total
    for _ in range(n_simulations):
        simulated = simulate_table_with_margins(row_totals, column_p, rng)
        sim_stats = clump_statistics(simulated, min_expected=min_expected)
        for k in exceed:
            if sim_stats.statistic(k) >= observed_values[k]:
                exceed[k] += 1
    return {k: (1 + exceed[k]) / (1 + n_simulations) for k in exceed}
