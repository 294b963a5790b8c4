"""Parity tests: the segmented-reduction EM kernel vs the seed's scatter-add.

The optimised kernel in :mod:`repro.stats.em` must be numerically equivalent
to the reference implementation preserved in :mod:`repro.stats.em_reference`:
identical iteration counts and convergence flags, log-likelihoods within
1e-9 and frequencies within 1e-10, across random genotype matrices with
missing data and the degenerate edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.genetics.packed import PackedPanel, pack_genotypes
from repro.stats import em
from repro.stats.em import (
    _TABLE_MAX_LOCI,
    PhaseExpansion,
    PhaseExpansionCache,
    _genotype_pairs,
    _phase_table,
    concat_expansions,
    estimate_from_expansion,
    estimate_haplotype_frequencies,
    expand_phases,
    expand_phases_packed,
    expansion_log_likelihood,
    run_em_stacked,
    stack_expansions,
)
from repro.stats.em_reference import (
    reference_estimate_from_expansion,
    reference_estimate_haplotype_frequencies,
    reference_expand_phases,
    reference_log_likelihood,
)

FREQ_ATOL = 1e-10
LL_ATOL = 1e-9


def _random_genotypes(seed: int, n: int, n_loci: int, missing_rate: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    genotypes = rng.integers(0, 3, size=(n, n_loci)).astype(np.int8)
    if missing_rate > 0:
        genotypes[rng.random((n, n_loci)) < missing_rate] = -1
    return genotypes


@st.composite
def _drawn_genotypes(draw, n_loci: int | None = None) -> np.ndarray:
    """A generated panel: any shape, missing rate, monomorphic and empty columns."""
    if n_loci is None:
        n_loci = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=0, max_value=60))
    missing_rate = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    genotypes = rng.integers(0, 3, size=(n, n_loci)).astype(np.int8)
    genotypes[rng.random(genotypes.shape) < missing_rate] = -1
    for column in draw(st.sets(st.integers(0, n_loci - 1))):
        genotypes[:, column] = draw(st.sampled_from([0, 1, 2]))  # monomorphic
    for column in draw(st.sets(st.integers(0, n_loci - 1), max_size=1)):
        genotypes[:, column] = -1  # a failed SNP
    return genotypes


#: the fields the seed's reference builder fills (it keeps no class_genotypes)
_PAIR_FIELDS = ("class_counts", "pair_a", "pair_b", "pair_class", "pair_multiplicity")


def _assert_same_expansion(
    a: PhaseExpansion, b: PhaseExpansion, fields=_PAIR_FIELDS + ("class_genotypes",)
) -> None:
    assert a.n_loci == b.n_loci
    for name in fields:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


_LAYOUT = {"is_class_sorted", "class_starts", "_can_reduceat"}


def _rebuilt(expansion: PhaseExpansion) -> PhaseExpansion:
    """The expansion rebuilt from its six fields, which derives its layout."""
    return PhaseExpansion(
        n_loci=expansion.n_loci,
        class_counts=expansion.class_counts,
        pair_a=expansion.pair_a,
        pair_b=expansion.pair_b,
        pair_class=expansion.pair_class,
        pair_multiplicity=expansion.pair_multiplicity,
    )


def _assert_carried_layout_matches_derived(expansion: PhaseExpansion) -> None:
    """The layout a builder hands over equals what a rebuilt expansion derives."""
    assert _LAYOUT <= vars(expansion).keys()  # known from construction
    rebuilt = _rebuilt(expansion)
    assert not _LAYOUT & vars(rebuilt).keys()  # derived on first use
    assert expansion.is_class_sorted == rebuilt.is_class_sorted
    assert expansion._can_reduceat == rebuilt._can_reduceat
    assert expansion.class_starts.dtype == rebuilt.class_starts.dtype
    np.testing.assert_array_equal(expansion.class_starts, rebuilt.class_starts)


def _assert_parity(genotypes: np.ndarray, **kwargs) -> None:
    new = estimate_haplotype_frequencies(genotypes, **kwargs)
    old = reference_estimate_haplotype_frequencies(genotypes, **kwargs)
    assert new.n_iterations == old.n_iterations
    assert new.converged == old.converged
    assert new.n_individuals == old.n_individuals
    assert new.log_likelihood == pytest.approx(old.log_likelihood, abs=LL_ATOL)
    np.testing.assert_allclose(new.frequencies, old.frequencies, atol=FREQ_ATOL)


class TestExpansionParity:
    """The vectorised phase enumeration must match the scalar one exactly."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=8))
    def test_single_genotype_pairs_match_scalar(self, seed, n_loci):
        rng = np.random.default_rng(seed)
        genotype = rng.integers(0, 3, size=n_loci).astype(np.int8)
        expansion = expand_phases(genotype[None, :])
        vectorised = list(zip(expansion.pair_a.tolist(), expansion.pair_b.tolist()))
        assert vectorised == _genotype_pairs(genotype)

    @settings(max_examples=40, deadline=None)
    @given(_drawn_genotypes())
    def test_matrix_expansion_matches_reference(self, genotypes):
        new = expand_phases(genotypes)
        _assert_same_expansion(new, reference_expand_phases(genotypes), _PAIR_FIELDS)
        # the packed builder emits the same expansion, field by field
        n, n_loci = genotypes.shape
        panel = PackedPanel(pack_genotypes(genotypes), n)
        packed = expand_phases_packed(panel, np.arange(n_loci))
        _assert_same_expansion(packed, new)
        _assert_carried_layout_matches_derived(new)
        _assert_carried_layout_matches_derived(packed)

    @pytest.mark.parametrize("n_loci", range(1, 11))
    def test_both_builders_match_the_seed_reference_at_every_size(
        self, n_loci, monkeypatch
    ):
        """Sizes up to 8 gather from the phase tables; 9 and 10 enumerate."""
        tails = []

        def spy(name):
            original = getattr(em, name)

            def recorded(*args):
                tails.append(name)
                return original(*args)

            return recorded

        for name in ("_expansion_from_codes", "_expansion_from_classes"):
            monkeypatch.setattr(em, name, spy(name))
        rng = np.random.default_rng(1000 + n_loci)
        n = 57
        genotypes = rng.integers(0, 3, size=(n, n_loci + 3)).astype(np.int8)
        genotypes[rng.random(genotypes.shape) < 0.04] = -1
        genotypes[:, 0] = 1  # monomorphic heterozygous
        genotypes[:, 1] = 2  # monomorphic homozygous
        genotypes[:, 2] = -1  # a failed SNP
        random_loci = list(range(3, n_loci + 3))
        panel = PackedPanel(pack_genotypes(genotypes), n).row_window(2, n)
        rows = genotypes[2:]
        subsets = {
            "random": random_loci,
            "reversed": random_loci[::-1],
            "monomorphic": ([0, 1] + random_loci)[:n_loci],
            "failed": [2] + random_loci[: n_loci - 1],
        }
        for name, subset in subsets.items():
            idx = np.asarray(subset, dtype=np.intp)
            byte = expand_phases(rows[:, idx])
            packed = expand_phases_packed(panel, idx)
            reference = reference_expand_phases(rows[:, idx])
            for built in (byte, packed):
                _assert_same_expansion(built, reference, _PAIR_FIELDS)
                _assert_carried_layout_matches_derived(built)
            _assert_same_expansion(packed, byte)
            complete = rows[:, idx][~np.any(rows[:, idx] == -1, axis=1)]
            if name == "failed":
                assert byte.n_classes == 0 and byte.class_genotypes.shape == (0, n_loci)
            else:
                np.testing.assert_array_equal(
                    byte.class_genotypes, np.unique(complete, axis=0)
                )
                assert byte.class_genotypes.dtype == np.int8
        expected_tail = (
            "_expansion_from_codes" if n_loci <= 8 else "_expansion_from_classes"
        )
        assert set(tails) == {expected_tail}

    def test_inputs_outside_the_table_codes_are_enumerated(self):
        """Float codes and integers outside 0/1/2 bypass the phase tables."""
        codes = np.array([[0, 1, 2], [1, 1, 0], [2, 1, 1], [1, 1, 0]], dtype=np.int8)
        floats = codes.astype(np.float64)
        expansion = expand_phases(floats)
        _assert_same_expansion(expansion, expand_phases(codes), _PAIR_FIELDS)
        assert expansion.class_genotypes.dtype == np.float64
        foreign = np.array([[3, 0, 1], [1, 1, 0], [-2, 2, 1]], dtype=np.int8)
        classes, counts = np.unique(foreign, axis=0, return_counts=True)
        _assert_same_expansion(
            expand_phases(foreign), em._expansion_from_classes(classes, counts)
        )

    @pytest.mark.parametrize("n_loci", [1, 4, _TABLE_MAX_LOCI])
    def test_phase_tables_are_built_once_and_refuse_writes(self, n_loci):
        table = _phase_table(n_loci)
        assert _phase_table(n_loci) is table
        for name, array in vars(table).items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n_loci: st.tuples(_drawn_genotypes(n_loci), _drawn_genotypes(n_loci))
    ))
    def test_concatenated_layout_matches_derived(self, pair):
        first, second = (expand_phases(g) for g in pair)
        _assert_carried_layout_matches_derived(concat_expansions(first, second))

    def test_concatenated_layout_keeps_an_empty_class(self):
        base = expand_phases(_random_genotypes(71, 20, 3))
        with_empty_class = PhaseExpansion(
            n_loci=base.n_loci,
            class_counts=np.append(base.class_counts, 1),
            pair_a=base.pair_a,
            pair_b=base.pair_b,
            pair_class=base.pair_class,
            pair_multiplicity=base.pair_multiplicity,
        )
        assert not with_empty_class._can_reduceat
        _assert_carried_layout_matches_derived(concat_expansions(with_empty_class, base))
        _assert_carried_layout_matches_derived(concat_expansions(base, with_empty_class))

    def test_expansion_is_class_sorted(self):
        expansion = expand_phases(_random_genotypes(3, 50, 6, missing_rate=0.05))
        assert expansion.is_class_sorted
        assert expansion.sorted_by_class() is expansion


class TestKernelParity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=3, max_value=80))
    def test_random_matrices(self, seed, n_loci, n_individuals):
        genotypes = _random_genotypes(seed, n_individuals, n_loci, missing_rate=0.08)
        _assert_parity(genotypes)

    def test_no_missing_data(self):
        _assert_parity(_random_genotypes(11, 60, 6))

    def test_heavy_missing_data(self):
        _assert_parity(_random_genotypes(12, 60, 4, missing_rate=0.5))

    def test_empty_expansion(self):
        genotypes = np.full((5, 3), -1, dtype=np.int8)
        _assert_parity(genotypes)
        result = estimate_haplotype_frequencies(genotypes)
        assert result.n_individuals == 0
        assert result.converged

    def test_all_homozygous(self):
        # no heterozygote anywhere: phases are unambiguous, one pair per class
        rng = np.random.default_rng(13)
        genotypes = (2 * rng.integers(0, 2, size=(40, 5))).astype(np.int8)
        expansion = expand_phases(genotypes)
        assert np.all(expansion.pair_multiplicity == 1.0)
        assert expansion.n_pairs == expansion.n_classes
        _assert_parity(genotypes)

    def test_single_locus(self):
        _assert_parity(_random_genotypes(14, 30, 1))

    def test_max_iter_cutoff(self):
        genotypes = _random_genotypes(15, 80, 6)
        _assert_parity(genotypes, max_iter=3)
        _assert_parity(genotypes, max_iter=0)

    def test_explicit_initial_frequencies(self):
        genotypes = _random_genotypes(16, 40, 3)
        rng = np.random.default_rng(17)
        initial = rng.random(8)
        initial /= initial.sum()
        _assert_parity(genotypes, initial_frequencies=initial)

    def test_log_likelihood_helper_matches_reference(self):
        genotypes = _random_genotypes(18, 50, 5, missing_rate=0.1)
        expansion = expand_phases(genotypes)
        rng = np.random.default_rng(19)
        freqs = rng.random(32)
        freqs /= freqs.sum()
        assert expansion_log_likelihood(expansion, freqs) == pytest.approx(
            reference_log_likelihood(expansion, freqs), abs=LL_ATOL
        )


class TestUnsortedExpansions:
    def test_hand_built_unsorted_expansion_is_normalised(self):
        genotypes = _random_genotypes(21, 30, 4, missing_rate=0.1)
        sorted_exp = expand_phases(genotypes)
        rng = np.random.default_rng(22)
        order = rng.permutation(sorted_exp.n_pairs)
        shuffled = PhaseExpansion(
            n_loci=sorted_exp.n_loci,
            class_counts=sorted_exp.class_counts,
            pair_a=sorted_exp.pair_a[order],
            pair_b=sorted_exp.pair_b[order],
            pair_class=sorted_exp.pair_class[order],
            pair_multiplicity=sorted_exp.pair_multiplicity[order],
        )
        assert not shuffled.is_class_sorted or np.all(np.diff(shuffled.pair_class) >= 0)
        # pooling an unsorted expansion leaves the pool to derive its layout
        pooled = concat_expansions(shuffled, sorted_exp)
        assert not _LAYOUT & vars(pooled).keys()
        assert pooled.is_class_sorted == _rebuilt(pooled).is_class_sorted
        a = estimate_from_expansion(shuffled)
        b = reference_estimate_from_expansion(sorted_exp)
        assert a.n_iterations == b.n_iterations
        assert a.log_likelihood == pytest.approx(b.log_likelihood, abs=LL_ATOL)
        np.testing.assert_allclose(a.frequencies, b.frequencies, atol=FREQ_ATOL)


class TestPooledExpansion:
    def test_concat_matches_reexpansion(self):
        g1 = _random_genotypes(31, 30, 4, missing_rate=0.05)
        g2 = _random_genotypes(32, 25, 4, missing_rate=0.05)
        pooled = estimate_from_expansion(
            concat_expansions(expand_phases(g1), expand_phases(g2))
        )
        direct = estimate_haplotype_frequencies(np.vstack([g1, g2]))
        # duplicated classes are mathematically equivalent to merged ones, so
        # the two EMs follow the same trajectory up to float summation order
        assert pooled.n_individuals == direct.n_individuals
        assert pooled.log_likelihood == pytest.approx(direct.log_likelihood, abs=1e-6)
        np.testing.assert_allclose(pooled.frequencies, direct.frequencies, atol=1e-6)

    def test_concat_with_empty_side(self):
        expansion = expand_phases(_random_genotypes(33, 20, 3))
        empty = expand_phases(np.full((4, 3), -1, dtype=np.int8))
        assert concat_expansions(expansion, empty) is expansion
        assert concat_expansions(empty, expansion) is expansion

    def test_concat_rejects_mismatched_loci(self):
        a = expand_phases(_random_genotypes(34, 10, 3))
        b = expand_phases(_random_genotypes(35, 10, 4))
        with pytest.raises(ValueError):
            concat_expansions(a, b)

    def test_concat_allele_frequencies_match_pooled(self):
        g1 = _random_genotypes(36, 30, 3)
        g2 = _random_genotypes(37, 20, 3)
        pooled = concat_expansions(expand_phases(g1), expand_phases(g2))
        np.testing.assert_allclose(
            pooled.allele_frequencies(), np.vstack([g1, g2]).mean(axis=0) / 2.0
        )


class TestWarmStart:
    def test_warm_start_converges_fast_to_same_likelihood(self):
        genotypes = _random_genotypes(41, 80, 5)
        cold = estimate_haplotype_frequencies(genotypes)
        warm = estimate_haplotype_frequencies(
            genotypes, initial_frequencies=cold.frequencies
        )
        assert warm.n_iterations <= 2
        assert warm.log_likelihood == pytest.approx(cold.log_likelihood, abs=1e-6)


def _assert_stacked_matches_scalar(expansions, *, initial_frequencies=None, **kwargs):
    """The stacked kernel must reproduce the scalar kernel *bitwise*.

    Bit-identity (not just tolerance-level agreement) is what makes batching
    a pure throughput decision: any partition of a workload into stacked
    calls — whole generations on the serial path, per-slave chunks on the
    farm — yields the same fitnesses, which the 201-locus scan determinism
    test relies on.
    """
    stacked = run_em_stacked(
        stack_expansions(expansions),
        initial_frequencies=initial_frequencies,
        **kwargs,
    )
    for index, (expansion, batched) in enumerate(zip(expansions, stacked)):
        initial = None if initial_frequencies is None else initial_frequencies[index]
        scalar = estimate_from_expansion(
            expansion, initial_frequencies=initial, **kwargs
        )
        assert batched.n_iterations == scalar.n_iterations
        assert batched.converged == scalar.converged
        assert batched.n_individuals == scalar.n_individuals
        assert batched.n_loci == scalar.n_loci
        assert batched.log_likelihood == scalar.log_likelihood
        np.testing.assert_array_equal(batched.frequencies, scalar.frequencies)


class TestStackedKernel:
    """The generation-batched kernel vs the scalar kernel, per problem."""

    def _random_problems(self, seed: int, count: int) -> list:
        rng = np.random.default_rng(seed)
        problems = []
        for _ in range(count):
            n = int(rng.integers(3, 90))
            n_loci = int(rng.integers(1, 8))
            missing = float(rng.choice([0.0, 0.05, 0.3]))
            genotypes = rng.integers(0, 3, size=(n, n_loci)).astype(np.int8)
            if missing > 0:
                genotypes[rng.random(genotypes.shape) < missing] = -1
            problems.append(expand_phases(genotypes))
        return problems

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_ragged_batches(self, seed):
        # mixed group sizes, locus counts and missingness in one stack
        _assert_stacked_matches_scalar(self._random_problems(seed, 12))

    def test_batch_of_one(self):
        _assert_stacked_matches_scalar(self._random_problems(61, 1))

    def test_large_batch(self):
        _assert_stacked_matches_scalar(self._random_problems(62, 64))

    def test_batch_with_empty_problem(self):
        problems = self._random_problems(63, 5)
        problems.insert(2, expand_phases(np.full((4, 3), -1, dtype=np.int8)))
        _assert_stacked_matches_scalar(problems)
        results = run_em_stacked(stack_expansions(problems))
        assert results[2].n_individuals == 0
        assert results[2].converged and results[2].n_iterations == 0

    def test_all_empty_batch(self):
        problems = [
            expand_phases(np.full((3, L), -1, dtype=np.int8)) for L in (1, 2, 4)
        ]
        results = run_em_stacked(stack_expansions(problems))
        assert all(r.converged and r.n_iterations == 0 for r in results)
        np.testing.assert_allclose(results[2].frequencies, np.full(16, 1 / 16))

    def test_all_converge_at_first_iteration(self):
        # warm-starting every problem from its own converged frequencies makes
        # the whole batch finish together within an iteration or two — the
        # all-finish-at-once exit path, no straggler compaction involved
        problems = self._random_problems(64, 8)
        initials = [estimate_from_expansion(e).frequencies for e in problems]
        _assert_stacked_matches_scalar(problems, initial_frequencies=initials)
        results = run_em_stacked(stack_expansions(problems), initial_frequencies=initials)
        assert all(r.n_iterations <= 2 for r in results)

    def test_max_iter_cutoff(self):
        problems = self._random_problems(65, 6)
        _assert_stacked_matches_scalar(problems, max_iter=3)
        _assert_stacked_matches_scalar(problems, max_iter=0)

    def test_mixed_warm_and_cold_starts(self):
        problems = self._random_problems(66, 6)
        initials = [None] * len(problems)
        initials[1] = estimate_from_expansion(problems[1]).frequencies
        initials[4] = estimate_from_expansion(problems[4]).frequencies
        _assert_stacked_matches_scalar(problems, initial_frequencies=initials)

    def test_heterogeneous_convergence_compaction(self):
        # deliberately mix a near-converged problem with cold ones so the
        # lazy compaction path (some finish, stragglers continue) is exercised
        problems = self._random_problems(67, 10)
        initials = [None] * len(problems)
        initials[0] = estimate_from_expansion(problems[0]).frequencies
        initials[7] = estimate_from_expansion(problems[7]).frequencies
        _assert_stacked_matches_scalar(problems, initial_frequencies=initials)

    def test_unsorted_expansions_are_normalised(self):
        base = expand_phases(_random_genotypes(68, 30, 4, missing_rate=0.1))
        rng = np.random.default_rng(69)
        order = rng.permutation(base.n_pairs)
        shuffled = PhaseExpansion(
            n_loci=base.n_loci,
            class_counts=base.class_counts,
            pair_a=base.pair_a[order],
            pair_b=base.pair_b[order],
            pair_class=base.pair_class[order],
            pair_multiplicity=base.pair_multiplicity[order],
        )
        _assert_stacked_matches_scalar([shuffled, base])

    def test_validation(self):
        problems = self._random_problems(70, 3)
        with pytest.raises(ValueError):
            stack_expansions([])
        stacked = stack_expansions(problems)
        with pytest.raises(ValueError):
            run_em_stacked(stacked, initial_frequencies=[None])  # wrong length
        bad = [None, np.full(3, 0.5), None]  # length 3 is never a state count
        with pytest.raises(ValueError):
            run_em_stacked(stacked, initial_frequencies=bad)
        with pytest.raises(ValueError):
            run_em_stacked(
                stacked,
                initial_frequencies=[
                    np.zeros(2 ** e.n_loci) for e in problems
                ],
            )


class TestPhaseExpansionCache:
    def test_hit_returns_same_object(self):
        genotypes = _random_genotypes(51, 30, 6)
        cache = PhaseExpansionCache(genotypes)
        first = cache.get((0, 2, 4))
        second = cache.get((4, 2, 0))  # key is the sorted tuple
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_expansion_matches_direct(self):
        genotypes = _random_genotypes(52, 30, 6, missing_rate=0.1)
        cache = PhaseExpansionCache(genotypes)
        cached = cache.get((1, 3))
        direct = expand_phases(genotypes[:, [1, 3]])
        np.testing.assert_array_equal(cached.pair_a, direct.pair_a)
        np.testing.assert_array_equal(cached.class_counts, direct.class_counts)

    def test_lru_eviction(self):
        genotypes = _random_genotypes(53, 10, 6)
        cache = PhaseExpansionCache(genotypes, max_size=2)
        cache.get((0,))
        cache.get((1,))
        cache.get((0,))  # refresh recency of (0,)
        cache.get((2,))  # evicts (1,)
        assert len(cache) == 2
        cache.get((1,))
        assert cache.misses == 4  # (0,), (1,), (2,), (1,) again after eviction

    def test_validation(self):
        genotypes = _random_genotypes(54, 10, 3)
        with pytest.raises(ValueError):
            PhaseExpansionCache(genotypes, max_size=0)
        with pytest.raises(ValueError):
            PhaseExpansionCache(genotypes[0])

    def test_presorted_key_fast_path(self):
        # an already-normalised key (the evaluator's _validate_snps output)
        # must hit the same entry as the slow path, without re-sorting
        genotypes = _random_genotypes(55, 30, 6)
        cache = PhaseExpansionCache(genotypes)
        slow = cache.get((4, 0, 2))
        fast = cache.get((0, 2, 4), presorted=True)
        assert fast is slow
        assert cache.hits == 1 and cache.misses == 1
        fresh = cache.get((1, 3), presorted=True)
        direct = expand_phases(genotypes[:, [1, 3]])
        np.testing.assert_array_equal(fresh.pair_a, direct.pair_a)
