"""Pearson chi-square helpers shared by CLUMP and the LD statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .contingency import ContingencyTable

__all__ = ["Chi2Result", "pearson_chi2", "chi2_sf"]


@dataclass(frozen=True)
class Chi2Result:
    """A chi-square statistic together with its degrees of freedom.

    The nominal p-value is derived on read: the GA's fitness is the bare
    statistic, so only reports pay for the survival function.
    """

    statistic: float
    df: int

    @property
    def p_value(self) -> float:
        return chi2_sf(self.statistic, self.df)

    def __float__(self) -> float:
        return self.statistic


def chi2_sf(statistic: float, df: int) -> float:
    """Survival function of the chi-square distribution (``P[X >= statistic]``).

    ``scipy.special.chdtrc`` is the kernel ``scipy.stats.chi2.sf`` evaluates,
    so the values agree bit for bit, without importing ``scipy.stats``.  The
    distribution path maps a statistic at or below the support's lower end
    to 1.0, which ``chdtrc`` would turn into ``nan`` for negative values.
    """
    if df <= 0 or statistic <= 0:
        return 1.0
    return float(chdtrc(df, statistic))


def pearson_chi2(table: ContingencyTable | np.ndarray) -> Chi2Result:
    """Pearson chi-square statistic of a two-row contingency table.

    Columns with zero total are dropped first (they contribute nothing and
    would make the expected-count denominator vanish).  The degrees of freedom
    are ``(rows - 1) * (columns - 1)`` computed on the retained columns.
    """
    if not isinstance(table, ContingencyTable):
        table = ContingencyTable(np.asarray(table, dtype=np.float64))
    table = table.drop_empty_columns()
    observed = table.counts
    expected = table.expected()
    # rows with zero total contribute nothing; keep them but avoid dividing by 0
    with np.errstate(invalid="ignore", divide="ignore"):
        cells = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    statistic = float(cells.sum())
    nonzero_rows = int(np.count_nonzero(table.row_totals > 0))
    df = max((nonzero_rows - 1) * (table.n_columns - 1), 0)
    return Chi2Result(statistic=statistic, df=df)
