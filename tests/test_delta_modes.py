"""DeltaAnalyzer under the mapping-dependent buffer models.

With ``elide_local_comm`` the ``firstPeriod`` vector — and so every edge's
buffer window — depends on the mapping; with ``merge_same_pe_buffers`` the
consumer-side copy of a same-PE edge is not allocated.  These tests drive
randomized move/swap sequences through the incremental engine and demand
*bit-identical* agreement with ``analyze(..., elide_local_comm=...,
merge_same_pe_buffers=...)`` on integer-cost graphs (the same exactness
contract test_delta.py establishes for the default mode), on single- and
dual-Cell platforms: 36 scenarios × 10 applies = 360 verified sequences
per run, plus the clone/bulk-change API the genetic algorithm relies on.
"""

import random

import pytest

from test_delta import PLATFORMS, integer_cost_graph

from repro.generator import assign_costs, random_topology
from repro.heuristics import greedy_cpu, local_search
from repro.platform import CellPlatform
from repro.steady_state import DeltaAnalyzer, Mapping, analyze, period
from repro.steady_state.reference import _local_search_full

#: The three mapping-dependent configurations under test.
MODES = (
    {"elide_local_comm": True, "merge_same_pe_buffers": False},
    {"elide_local_comm": False, "merge_same_pe_buffers": True},
    {"elide_local_comm": True, "merge_same_pe_buffers": True},
)

MODE_IDS = ("elide", "merge", "elide+merge")


def assert_snapshot_matches(state: DeltaAnalyzer) -> None:
    """snapshot() must equal a fresh flagged analyze() bit for bit."""
    snap = state.snapshot()
    full = analyze(
        state.mapping(),
        elide_local_comm=state.elide_local_comm,
        merge_same_pe_buffers=state.merge_same_pe_buffers,
    )
    assert snap.period == full.period
    assert snap.loads == full.loads
    assert snap.violations == full.violations
    assert snap.buffer_bytes == full.buffer_bytes
    assert snap.dma_in == full.dma_in
    assert snap.dma_proxy == full.dma_proxy
    assert snap.link_loads == full.link_loads
    assert snap.feasible == full.feasible
    assert snap.mapping == full.mapping


class TestMappingDependentConsistency:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_sequences_exact(self, seed, mode):
        """Randomized moves/swaps: scores and snapshots match analyze()."""
        g = integer_cost_graph(seed)
        platform = PLATFORMS[seed % len(PLATFORMS)]
        rng = random.Random(4000 + seed)
        names = g.task_names()
        mapping = Mapping(
            g, platform, {n: rng.randrange(platform.n_pes) for n in names}
        )
        state = DeltaAnalyzer(mapping, **mode)
        assert_snapshot_matches(state)
        for _step in range(10):
            if rng.random() < 0.35 and len(names) >= 2:
                a, b = rng.sample(names, 2)
                score = state.score_swap(a, b)
                candidate = (
                    state.mapping()
                    .with_assignment(a, state.pe_of(b))
                    .with_assignment(b, state.pe_of(a))
                )
                reference = analyze(candidate, **mode)
                assert score.period == reference.period
                assert score.feasible == reference.feasible
                state.apply_swap(a, b)
            else:
                task = rng.choice(names)
                pe = rng.randrange(platform.n_pes)
                score = state.score_move(task, pe)
                reference = analyze(
                    state.mapping().with_assignment(task, pe), **mode
                )
                assert score.period == reference.period
                assert score.feasible == reference.feasible
                state.apply_move(task, pe)
            assert_snapshot_matches(state)

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_dual_cell_sequences_exact(self, mode):
        """Dedicated dual-Cell coverage (BIF links + elided buffers)."""
        platform = CellPlatform.qs22_dual()
        for seed in (60, 61, 62, 63):
            g = integer_cost_graph(seed, n_min=10, n_max=18)
            rng = random.Random(seed)
            names = g.task_names()
            state = DeltaAnalyzer(
                Mapping(
                    g,
                    platform,
                    {n: rng.randrange(platform.n_pes) for n in names},
                ),
                **mode,
            )
            for _step in range(8):
                task = rng.choice(names)
                pe = rng.randrange(platform.n_pes)
                reference = analyze(
                    state.mapping().with_assignment(task, pe), **mode
                )
                score = state.score_move(task, pe)
                assert score.period == reference.period
                assert score.feasible == reference.feasible
                state.apply_move(task, pe)
                assert_snapshot_matches(state)

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_scores_do_not_mutate_state(self, qs22, mode):
        g = integer_cost_graph(17)
        state = DeltaAnalyzer(greedy_cpu(g, qs22), **mode)
        before = state.snapshot()
        names = g.task_names()
        for name in names:
            for pe in range(qs22.n_pes):
                state.score_move(name, pe)
        state.score_swap(names[0], names[-1])
        state.score_changes({names[0]: 1, names[-1]: 2})
        after = state.snapshot()
        assert before.period == after.period
        assert before.loads == after.loads
        assert before.buffer_bytes == after.buffer_bytes

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_bulk_changes_match_fresh_analyzer(self, qs22, mode):
        """score_changes/apply_changes equal analyze() on the blended map."""
        g = integer_cost_graph(23, n_min=12, n_max=18)
        rng = random.Random(7)
        names = g.task_names()
        state = DeltaAnalyzer(
            Mapping(g, qs22, {n: rng.randrange(qs22.n_pes) for n in names}),
            **mode,
        )
        changes = {
            n: rng.randrange(qs22.n_pes) for n in rng.sample(names, 5)
        }
        target = state.mapping()
        for name, pe in changes.items():
            target = target.with_assignment(name, pe)
        reference = analyze(target, **mode)
        score = state.score_changes(changes)
        assert score.period == reference.period
        assert score.feasible == reference.feasible
        state.apply_changes(changes)
        assert state.mapping() == target
        assert_snapshot_matches(state)

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_try_apply_changes_commits_only_feasible(self, mode):
        platform = CellPlatform(
            n_ppe=1,
            n_spe=4,
            local_store=64 * 1024,
            code_size=32 * 1024,
            dma_in_slots=3,
            dma_proxy_slots=2,
            name="tight",
        )
        g = integer_cost_graph(28, n_min=12, n_max=18)
        rng = random.Random(3)
        names = g.task_names()
        state = DeltaAnalyzer(Mapping.all_on_ppe(g, platform), **mode)
        committed = rejected = 0
        for _step in range(30):
            changes = {
                n: rng.randrange(platform.n_pes)
                for n in rng.sample(names, 3)
            }
            before = state.assignment()
            reference = state.score_changes(changes)
            verdict = state.try_apply_changes(changes)
            assert verdict == reference
            if verdict.feasible:
                committed += 1
                for name, pe in changes.items():
                    assert state.pe_of(name) == pe
            else:
                rejected += 1
                assert state.assignment() == before
            assert_snapshot_matches(state)
        # The tight platform must exercise both branches.
        assert committed and rejected

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_clone_is_independent(self, qs22, mode):
        g = integer_cost_graph(31, n_min=10, n_max=14)
        state = DeltaAnalyzer(greedy_cpu(g, qs22), **mode)
        twin = state.clone()
        assert twin.mapping() == state.mapping()
        assert twin.period() == state.period()
        name = g.task_names()[0]
        twin.apply_move(name, (state.pe_of(name) + 1) % qs22.n_pes)
        # The original is untouched by the clone's move, and both stay
        # bit-consistent with their own mappings.
        assert state.pe_of(name) != twin.pe_of(name)
        assert_snapshot_matches(state)
        assert_snapshot_matches(twin)

    def test_elide_buffers_never_larger(self, qs22):
        """Eliding local communication can only shrink buffer windows."""
        g = integer_cost_graph(40, n_min=10, n_max=16)
        mapping = greedy_cpu(g, qs22)
        plain = DeltaAnalyzer(mapping)
        elided = DeltaAnalyzer(mapping, elide_local_comm=True)
        for spe, plain_bytes in plain.snapshot().buffer_bytes.items():
            assert elided.snapshot().buffer_bytes[spe] <= plain_bytes

    def test_generator_graph_sequences_close_and_resync(self):
        """Arbitrary float costs: ulp-level agreement, resync restores."""
        g = assign_costs(random_topology(16, fat=0.5, seed=11), ccr=1.3, seed=11)
        platform = CellPlatform.qs22()
        rng = random.Random(13)
        names = g.task_names()
        state = DeltaAnalyzer(
            Mapping(
                g, platform, {n: rng.randrange(platform.n_pes) for n in names}
            ),
            elide_local_comm=True,
            merge_same_pe_buffers=True,
        )
        for _step in range(40):
            task = rng.choice(names)
            pe = rng.randrange(platform.n_pes)
            score = state.score_move(task, pe)
            reference = analyze(
                state.mapping().with_assignment(task, pe),
                elide_local_comm=True,
                merge_same_pe_buffers=True,
            )
            assert score.period == pytest.approx(reference.period, rel=1e-9)
            state.apply_move(task, pe)
        state.resync()
        assert_snapshot_matches(state)


class TestLocalSearchUnderModes:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_matches_full_reference(self, qs22, mode):
        """Delta-evaluated local search equals the analyze()-per-candidate
        reference under every buffer model."""
        g = integer_cost_graph(52, n_min=10, n_max=13)
        start = Mapping.all_on_ppe(g, qs22)
        fast = local_search(start, max_rounds=4, **mode)
        slow = _local_search_full(start, 4, True, **mode)
        assert fast.to_dict() == slow.to_dict()
        assert period(fast) == period(slow)
