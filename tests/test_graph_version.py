"""Audit: every StreamGraph mutation must bump ``version``.

``StreamGraph.version`` is the invalidation key of the memoized
``buffer_requirements`` (and any future derived cache); a mutator that
forgets to bump it silently serves stale buffer footprints to every
scheduler.  The harness here fingerprints the graph's internal structure
around each mutator call and demands a version bump whenever the
structure changed — and proves it *catches* a forgetful mutator by
running a deliberately broken one through the same check.
"""

import pytest

from repro.graph import DataEdge, StreamGraph, Task, Workload
from repro.steady_state import buffer_requirements


def structural_fingerprint(graph: StreamGraph):
    """Hashable snapshot of every internal structure a mutator may touch."""
    return (
        tuple(graph._tasks.items()),
        tuple(graph._edges.items()),
        tuple((k, tuple(v)) for k, v in graph._succ.items()),
        tuple((k, tuple(v)) for k, v in graph._pred.items()),
    )


def assert_mutation_bumps_version(graph: StreamGraph, mutate) -> None:
    """Run ``mutate()``; if the structure changed, the version must too."""
    before = structural_fingerprint(graph)
    version_before = graph.version
    mutate()
    after = structural_fingerprint(graph)
    if after != before:
        assert graph.version > version_before, (
            "graph structure changed without a version bump — derived "
            "caches (memoized buffer_requirements) would go stale"
        )


#: Every public StreamGraph mutator (the audits below exercise each).
MUTATORS = {"add_task", "add_edge", "replace_task", "replace_edge"}


def build() -> StreamGraph:
    g = StreamGraph("audit")
    g.add_task(Task("a", wppe=10.0, wspe=5.0))
    g.add_task(Task("b", wppe=10.0, wspe=5.0, peek=1))
    g.add_edge(DataEdge("a", "b", 100.0))
    return g


class TestMutatorAudit:
    def test_every_public_mutator_bumps(self):
        """One entry per public mutator of StreamGraph — extend this table
        when adding a mutator, and the harness enforces the bump."""
        g = build()
        mutators = [
            lambda: g.add_task(Task("c", wppe=1.0, wspe=1.0)),
            lambda: g.add_edge(DataEdge("b", "c", 50.0)),
            lambda: g.replace_task(Task("a", wppe=20.0, wspe=5.0)),
            lambda: g.replace_edge(DataEdge("a", "b", 300.0)),
        ]
        for mutate in mutators:
            assert_mutation_bumps_version(g, mutate)

    def test_audit_table_is_complete(self):
        """Fail when StreamGraph grows a public mutator the table above
        does not exercise (crude but effective tripwire)."""
        known_mutators = MUTATORS
        # Public methods that return structure or derived values are
        # explicitly read-only; everything else must be in the table.
        read_only = {
            "task", "edge", "has_edge", "tasks", "task_names", "edges",
            "successors", "predecessors", "out_edges", "in_edges",
            "out_degree", "in_degree", "sources", "sinks",
            "topological_order", "is_acyclic", "validate", "depth",
            "levels", "width", "copy", "scaled", "to_networkx",
            "from_parts", "chain_of",
        }
        public = {
            name
            for name in dir(StreamGraph)
            if not name.startswith("_")
            and callable(getattr(StreamGraph, name))
        }
        unaccounted = public - known_mutators - read_only
        assert not unaccounted, (
            f"new public StreamGraph methods {sorted(unaccounted)}: classify "
            "them read-only or add them to the mutator audit table"
        )

    def test_forgetful_mutator_is_caught(self):
        """The harness must flag a mutator that skips the bump."""

        class LeakyGraph(StreamGraph):
            def sneaky_retag(self, task: Task) -> None:
                # BUG on purpose: mutates without bumping _version.
                self._tasks[task.name] = task

        g = LeakyGraph("leaky")
        g.add_task(Task("a", wppe=1.0, wspe=1.0))
        with pytest.raises(AssertionError, match="version bump"):
            assert_mutation_bumps_version(
                g, lambda: g.sneaky_retag(Task("a", wppe=9.0, wspe=9.0))
            )

    def test_stale_cache_consequence(self):
        """The functional reason for the audit: the memo must refresh."""
        g = build()
        before = buffer_requirements(g)
        # peek drives the §4.2 window: bumping it must change the needs.
        g.replace_task(Task("b", wppe=10.0, wspe=5.0, peek=3))
        after = buffer_requirements(g)
        assert after["a"] > before["a"]


class TestCompiledGraphAudit:
    """`compile_graph` memoizes on ``StreamGraph.version`` exactly like
    the memoized ``buffer_requirements``: every mutator that bumps the
    version must force a recompilation, and the fresh compilation must
    reflect the mutation (a stale hit would feed every DeltaAnalyzer
    wrong cost/adjacency arrays)."""

    def test_every_public_mutator_recompiles(self):
        from repro.steady_state import compile_graph

        g = build()
        mutators = [
            lambda: g.add_task(Task("c", wppe=1.0, wspe=1.0)),
            lambda: g.add_edge(DataEdge("b", "c", 50.0)),
            lambda: g.replace_task(Task("a", wppe=20.0, wspe=5.0)),
            lambda: g.replace_edge(DataEdge("a", "b", 300.0)),
        ]
        for mutate in mutators:
            before = compile_graph(g)
            assert before is compile_graph(g)  # memo hit while unchanged
            mutate()
            after = compile_graph(g)
            assert after is not before, (
                "graph version bumped without a recompilation — the "
                "compiled arrays would go stale"
            )
            assert after.version == g.version

    def test_recompilation_reflects_the_mutation(self):
        from repro.steady_state import compile_graph

        g = build()
        compile_graph(g)
        g.replace_task(Task("a", wppe=77.0, wspe=5.0))
        cg = compile_graph(g)
        assert cg.wppe[cg.index["a"]] == 77.0
        g.add_task(Task("c", wppe=1.0, wspe=1.0))
        g.add_edge(DataEdge("b", "c", 64.0))
        cg = compile_graph(g)
        assert cg.n == 3 and cg.n_edges == 2
        assert cg.names[cg.edge_dst[1]] == "c"


class TestWorkloadVersionAudit:
    """`Workload.version` is the invalidation key of the memoized
    composite: it must change whenever the workload *or any member
    graph* mutates, through every mutator of either."""

    def build_workload(self):
        w = Workload("audit")
        w.add_app("one", build())
        w.add_app("two", build())
        return w

    def test_every_member_mutator_bumps_workload_version(self):
        w = self.build_workload()
        for app_name in ("one", "two"):
            g = w.app(app_name).graph
            mutators = [
                lambda g=g: g.add_task(Task("z", wppe=1.0, wspe=1.0)),
                lambda g=g: g.add_edge(DataEdge("b", "z", 10.0)),
                lambda g=g: g.replace_task(Task("a", wppe=3.0, wspe=3.0)),
                lambda g=g: g.replace_edge(DataEdge("a", "b", 99.0)),
            ]
            for mutate in mutators:
                before = w.version
                mutate()
                assert w.version > before, (
                    "member graph mutated without a workload version "
                    "change — the memoized composite would go stale"
                )

    def test_workload_mutator_bumps(self):
        w = self.build_workload()
        before = w.version
        w.add_app("three", build())
        assert w.version > before

    def test_remove_app_bumps_despite_shrinking_member_sum(self):
        """remove_app drops a member graph's counter from the version sum;
        the workload must compensate so the version still increases."""
        w = self.build_workload()
        # Inflate the doomed member's counter so a naive sum would *drop*.
        g = w.app("one").graph
        for _ in range(5):
            g.replace_task(Task("a", wppe=2.0, wspe=2.0))
        before = w.version
        removed = w.remove_app("one")
        assert removed.name == "one"
        assert "one" not in w
        assert w.version > before

    def test_replace_graph_bumps_despite_shrinking_member_sum(self):
        """replace_graph swaps a member graph (the runtime's
        cost-perturbation windows): the outgoing graph's counter leaves
        the version sum, so the workload must compensate — and the fresh
        composite must carry the new costs while keeping order/metadata."""
        w = Workload("audit")
        w.add_app("one", build(), weight=2.0, target_period=99.0)
        w.add_app("two", build())
        # Inflate the outgoing member's counter so a naive sum would drop.
        g = w.app("one").graph
        for _ in range(5):
            g.replace_task(Task("a", wppe=2.0, wspe=2.0))
        first = w.compile()
        before = w.version
        w.replace_graph("one", g.scaled(3.0))
        assert w.version > before
        second = w.compile()
        assert second is not first
        assert second.task("one:a").wppe == 6.0
        assert second.app_names == ("one", "two")  # order preserved
        assert w.app("one").weight == 2.0
        assert w.app("one").target_period == 99.0

    def test_replace_graph_unknown_rejected(self):
        from repro.errors import WorkloadError

        w = self.build_workload()
        with pytest.raises(WorkloadError, match="unknown application"):
            w.replace_graph("ghost", build())

    def test_remove_app_unknown_rejected(self):
        from repro.errors import WorkloadError

        w = self.build_workload()
        with pytest.raises(WorkloadError, match="unknown application"):
            w.remove_app("ghost")

    def test_remove_app_invalidates_composite(self):
        w = self.build_workload()
        first = w.compile()
        assert "one:a" in first
        w.remove_app("one")
        second = w.compile()
        assert second is not first
        assert "one:a" not in second
        assert second.app_names == ("two",)

    def test_readd_after_remove_is_fresh(self):
        """Remove + re-add under the same name never repeats a version."""
        w = self.build_workload()
        seen = {w.version}
        w.remove_app("one")
        assert w.version not in seen
        seen.add(w.version)
        w.add_app("one", build())
        assert w.version not in seen
        assert w.compile().app_names == ("two", "one")  # appended at end

    def test_rename_guard_bumps_and_validates(self):
        from repro.errors import WorkloadError

        w = self.build_workload()
        first = w.compile()
        before = w.version
        w.rename("renamed")
        assert w.version > before
        second = w.compile()
        assert second is not first
        assert second.name == "renamed"
        # Attribute assignment goes through the same guard.
        before = w.version
        w.name = "again"
        assert w.version > before
        assert w.compile().name == "again"
        # No-op rename: no gratuitous invalidation.
        cached = w.compile()
        w.rename("again")
        assert w.compile() is cached
        with pytest.raises(WorkloadError, match="non-empty"):
            w.rename("")

    def test_stale_composite_consequence(self):
        """The functional reason: compile() must recompile after any
        member mutation, and the fresh composite reflects it."""
        w = self.build_workload()
        first = w.compile()
        assert w.compile() is first  # memoized while clean
        w.app("one").graph.replace_edge(DataEdge("a", "b", 7777.0))
        second = w.compile()
        assert second is not first
        assert second.edge("one:a", "one:b").data == 7777.0

    def test_version_monotone_under_interleaving(self):
        """Interleaved member/workload mutations never repeat a version
        (sum-of-counters stays strictly increasing)."""
        w = self.build_workload()
        seen = {w.version}
        w.app("one").graph.add_task(Task("m1", wppe=1.0, wspe=1.0))
        assert w.version not in seen
        seen.add(w.version)
        w.app("two").graph.add_task(Task("m2", wppe=2.0, wspe=2.0))
        assert w.version not in seen
        seen.add(w.version)
        w.add_app("late", build())
        assert w.version not in seen


class TestWorkloadBlockAudit:
    """``Workload.compile`` caches one compiled block per application,
    keyed on the member graph and its ``version``: every member mutator
    must rebuild that block (and only that block), and the composite
    assembled from the blocks must match a from-scratch compilation."""

    def test_every_member_mutator_rebuilds_the_block(self):
        from test_composite_blocks import assert_assembled_exact

        w = Workload("audit")
        w.add_app("one", build())
        w.add_app("two", build())
        w.compile()
        g = w.app("one").graph
        mutators = {
            "add_task": lambda: g.add_task(Task("z", wppe=1.0, wspe=1.0)),
            "add_edge": lambda: g.add_edge(DataEdge("b", "z", 10.0)),
            "replace_task": lambda: g.replace_task(Task("a", wppe=3.0, wspe=3.0)),
            "replace_edge": lambda: g.replace_edge(DataEdge("a", "b", 99.0)),
        }
        assert set(mutators) == MUTATORS
        for name, mutate in mutators.items():
            stale, other = w._blocks["one"], w._blocks["two"]
            mutate()
            assert_assembled_exact(w)
            fresh = w._blocks["one"]
            assert fresh is not stale, (
                f"{name} left the member's compiled block in place — the "
                "assembled composite would go stale"
            )
            assert fresh.version == g.version
            assert w._blocks["two"] is other
        composite = w.compile()
        assert composite.edge("one:a", "one:b").data == 99.0
        assert composite.task("one:a").wppe == 3.0
        assert composite.successors("one:b") == ["one:z"]
