"""Unit tests for the execution engine: semantics of Section 2's model."""

import pytest

from repro.sim.events import ReceiveEvent
from repro.sim.execution import ABORT, FAIL, Executor, run_protocol
from repro.experiments import all_scenarios, trial_registry
from repro.experiments.runner import _execute_trial
from repro.sim.scheduler import (
    FifoScheduler,
    LinkPriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.strategy import Context, SilentStrategy, Strategy
from repro.sim.topology import (
    Topology,
    bidirectional_ring,
    complete_graph,
    unidirectional_ring,
)
from repro.util.errors import ConfigurationError, ProtocolViolation
from repro.util.rng import RngRegistry


class Echo(Strategy):
    """Sends one token on wakeup (node 1 only), forwards once, terminates."""

    def __init__(self, spontaneous: bool, hops: int):
        self.spontaneous = spontaneous
        self.hops = hops

    def on_wakeup(self, ctx: Context) -> None:
        if self.spontaneous:
            ctx.send_next(("token", 0))

    def on_receive(self, ctx: Context, value, sender) -> None:
        label, hop = value
        if hop + 1 < self.hops:
            ctx.send_next((label, hop + 1))
        ctx.terminate("done")


class Oblivious(Strategy):
    def on_wakeup(self, ctx):
        pass

    def on_receive(self, ctx, value, sender):
        pass


class Outputter(Strategy):
    def __init__(self, out):
        self.out = out

    def on_wakeup(self, ctx):
        ctx.terminate(self.out)

    def on_receive(self, ctx, value, sender):
        pass


def two_ring():
    return unidirectional_ring(2)


class TestOutcomeSemantics:
    def test_unanimous_output_is_outcome(self):
        topo = two_ring()
        res = run_protocol(topo, {1: Outputter(5), 2: Outputter(5)})
        assert res.outcome == 5
        assert not res.failed

    def test_disagreement_fails(self):
        topo = two_ring()
        res = run_protocol(topo, {1: Outputter(1), 2: Outputter(2)})
        assert res.outcome == FAIL
        assert "disagree" in res.fail_reason

    def test_abort_fails(self):
        class Aborter(Strategy):
            def on_wakeup(self, ctx):
                ctx.abort("testing")

            def on_receive(self, ctx, value, sender):
                pass

        topo = two_ring()
        res = run_protocol(topo, {1: Aborter(), 2: Outputter(1)})
        assert res.failed
        assert "abort" in res.fail_reason

    def test_nontermination_fails(self):
        topo = two_ring()
        res = run_protocol(topo, {1: SilentStrategy(), 2: SilentStrategy()})
        assert res.failed
        assert "never terminated" in res.fail_reason

    def test_step_budget_fails(self):
        class PingPong(Strategy):
            def on_wakeup(self, ctx):
                ctx.send_next("ping")

            def on_receive(self, ctx, value, sender):
                ctx.send_next(value)

        topo = two_ring()
        res = run_protocol(
            topo, {1: PingPong(), 2: PingPong()}, max_steps=50
        )
        assert res.failed
        assert "budget" in res.fail_reason


class TestModelRules:
    def test_messages_to_terminated_are_dropped(self):
        class SendThenStop(Strategy):
            def on_wakeup(self, ctx):
                ctx.send_next("x")
                ctx.terminate(1)

            def on_receive(self, ctx, value, sender):
                raise AssertionError("should never be called")

        topo = two_ring()
        res = run_protocol(topo, {1: SendThenStop(), 2: SendThenStop()})
        assert res.outcome == 1

    def test_send_to_non_neighbour_raises(self):
        class BadSender(Strategy):
            def on_wakeup(self, ctx):
                ctx.send(99, "x")

            def on_receive(self, ctx, value, sender):
                pass

        topo = two_ring()
        with pytest.raises(ProtocolViolation):
            run_protocol(topo, {1: BadSender(), 2: Oblivious()})

    def test_double_terminate_raises(self):
        class Doubler(Strategy):
            def on_wakeup(self, ctx):
                ctx.terminate(1)
                ctx.terminate(2)

            def on_receive(self, ctx, value, sender):
                pass

        topo = two_ring()
        with pytest.raises(ProtocolViolation):
            run_protocol(topo, {1: Doubler(), 2: Oblivious()})

    def test_send_after_terminate_raises(self):
        class LateSender(Strategy):
            def on_wakeup(self, ctx):
                ctx.terminate(1)
                ctx.send_next("x")

            def on_receive(self, ctx, value, sender):
                pass

        topo = two_ring()
        with pytest.raises(ProtocolViolation):
            run_protocol(topo, {1: LateSender(), 2: Oblivious()})

    def test_fifo_per_link(self):
        received = []

        class Burst(Strategy):
            def on_wakeup(self, ctx):
                for i in range(5):
                    ctx.send_next(i)
                ctx.terminate(0)

            def on_receive(self, ctx, value, sender):
                pass

        class Collect(Strategy):
            def on_wakeup(self, ctx):
                pass

            def on_receive(self, ctx, value, sender):
                received.append(value)
                if len(received) == 5:
                    ctx.terminate(0)

        topo = two_ring()
        res = run_protocol(topo, {1: Burst(), 2: Collect()})
        assert received == [0, 1, 2, 3, 4]
        assert res.outcome == 0


class TestConfiguration:
    def test_missing_strategy_rejected(self):
        topo = two_ring()
        with pytest.raises(ConfigurationError):
            Executor(topo, {1: SilentStrategy()})

    def test_extra_strategy_rejected(self):
        topo = two_ring()
        with pytest.raises(ConfigurationError):
            Executor(
                topo,
                {1: SilentStrategy(), 2: SilentStrategy(), 3: SilentStrategy()},
            )

    def test_shared_strategy_instance_rejected(self):
        topo = two_ring()
        shared = SilentStrategy()
        with pytest.raises(ConfigurationError):
            Executor(topo, {1: shared, 2: shared})

    def test_seed_and_rng_mutually_exclusive(self):
        topo = two_ring()
        with pytest.raises(ConfigurationError):
            run_protocol(
                topo,
                {1: SilentStrategy(), 2: SilentStrategy()},
                rng=RngRegistry(0),
                seed=1,
            )


class TestDeliveryOrderRegression:
    """The O(1) ready-set bookkeeping must not change delivery order.

    Golden sequences below were recorded against the original list-based
    bookkeeping (``self._ready.remove(link)`` / ``link not in
    self._ready``) for every scheduler; the complete graph keeps many
    links concurrently ready, so any reordering in how links enter or
    leave the ready set would show up here.
    """

    GOLDEN = {
        "fifo": [
            (1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2),
            (3, 4), (4, 1), (4, 1), (4, 2), (4, 2), (4, 3), (4, 3), (1, 2),
            (1, 3), (1, 4), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 4),
        ],
        "round-robin": [
            (1, 2), (1, 4), (2, 3), (3, 1), (3, 4), (4, 2), (1, 3), (2, 4),
            (4, 1), (4, 3), (4, 2), (3, 4), (3, 2), (4, 1), (3, 1), (2, 4),
            (3, 2), (2, 3), (4, 3), (2, 1), (1, 2), (1, 4), (1, 3), (2, 1),
        ],
        "random": [
            (2, 4), (1, 4), (3, 4), (1, 2), (2, 1), (4, 3), (4, 1), (1, 3),
            (3, 2), (4, 3), (2, 3), (3, 4), (4, 1), (3, 1), (3, 1), (1, 3),
            (1, 4), (4, 2), (3, 2), (4, 2), (2, 4), (1, 2), (2, 1), (2, 3),
        ],
        "priority": [
            (2, 1), (1, 3), (1, 4), (2, 3), (2, 4), (3, 1), (3, 2), (3, 4),
            (4, 1), (4, 1), (4, 2), (4, 2), (4, 3), (4, 3), (1, 3), (1, 4),
            (3, 1), (3, 2), (3, 4), (1, 2), (2, 1), (2, 3), (2, 4), (1, 2),
        ],
    }

    @staticmethod
    def _delivery_order(scheduler):
        from repro.protocols import async_complete_protocol

        topo = complete_graph(4)
        res = run_protocol(
            topo, async_complete_protocol(topo), scheduler=scheduler, seed=5
        )
        assert res.outcome == 3
        return [
            (e.sender, e.receiver)
            for e in res.trace
            if isinstance(e, ReceiveEvent)
        ]

    def test_fifo_first_ready_order_unchanged(self):
        assert self._delivery_order(None) == self.GOLDEN["fifo"]

    def test_round_robin_order_unchanged(self):
        assert self._delivery_order(RoundRobinScheduler()) == self.GOLDEN[
            "round-robin"
        ]

    def test_random_scheduler_order_unchanged(self):
        assert self._delivery_order(RandomScheduler(seed=7)) == self.GOLDEN[
            "random"
        ]

    def test_priority_scheduler_order_unchanged(self):
        scheduler = LinkPriorityScheduler({(1, 2): 5, (2, 1): -1})
        assert self._delivery_order(scheduler) == self.GOLDEN["priority"]

    def test_bad_scheduler_choice_still_detected(self):
        from repro.sim.scheduler import Scheduler
        from repro.util.errors import SimulationError

        class Liar(Scheduler):
            def choose(self, ready_links):
                return ("nope", "nope")

        class Sender(Strategy):
            def on_wakeup(self, ctx):
                ctx.send_next("x")

            def on_receive(self, ctx, value, sender):
                ctx.terminate(0)

        topo = two_ring()
        with pytest.raises(SimulationError):
            run_protocol(topo, {1: Sender(), 2: Sender()}, scheduler=Liar())


class TestTraceRecordingSwitch:
    def test_trace_off_preserves_outcome_and_steps(self):
        from repro.protocols.alead_uni import alead_uni_protocol

        topo = unidirectional_ring(8)
        traced = run_protocol(topo, alead_uni_protocol(topo), seed=4)
        bare = run_protocol(
            topo, alead_uni_protocol(topo), seed=4, record_trace=False
        )
        assert bare.outcome == traced.outcome
        assert bare.steps == traced.steps
        assert bare.outputs == traced.outputs
        assert len(traced.trace) > 0
        assert len(bare.trace) == 0

    def test_trace_off_keeps_failure_reporting(self):
        topo = two_ring()
        res = run_protocol(
            topo,
            {1: SilentStrategy(), 2: SilentStrategy()},
            record_trace=False,
        )
        assert res.failed
        assert "never terminated" in res.fail_reason


class TestDeterminism:
    def test_same_seed_same_trace(self):
        from repro.protocols.alead_uni import alead_uni_protocol

        topo = unidirectional_ring(6)
        r1 = run_protocol(topo, alead_uni_protocol(topo), seed=9)
        r2 = run_protocol(topo, alead_uni_protocol(topo), seed=9)
        assert r1.outcome == r2.outcome
        assert [e for e in r1.trace] == [e for e in r2.trace]

    def test_different_seed_usually_differs(self):
        from repro.protocols.alead_uni import alead_uni_protocol

        topo = unidirectional_ring(16)
        outcomes = {
            run_protocol(topo, alead_uni_protocol(topo), seed=s).outcome
            for s in range(12)
        }
        assert len(outcomes) > 1

    def test_random_scheduler_reproducible(self):
        from repro.protocols.basic_lead import basic_lead_protocol

        topo = unidirectional_ring(5)
        r1 = run_protocol(
            topo, basic_lead_protocol(topo),
            scheduler=RandomScheduler(seed=3), seed=1,
        )
        r2 = run_protocol(
            topo, basic_lead_protocol(topo),
            scheduler=RandomScheduler(seed=3), seed=1,
        )
        assert r1.outcome == r2.outcome


def _observable(result):
    return (result.outcome, result.steps, result.outputs, result.fail_reason)


def _both_loops(topology, make_protocol, **kwargs):
    """Run the same execution traced and untraced; return both results."""
    return tuple(
        run_protocol(topology, make_protocol(), record_trace=traced, **kwargs)
        for traced in (True, False)
    )


def _single_in_link_scenarios():
    names = []
    for spec in all_scenarios():
        if spec.build_topology is None:
            continue
        topology = spec.build_topology(spec.resolve_params())
        if all(len(topology.predecessors(v)) <= 1 for v in topology.nodes):
            names.append(spec.name)
    return names


SINGLE_IN_LINK_SCENARIOS = _single_in_link_scenarios()


class Forward(Strategy):
    """Node ``origin`` sends ``tokens`` tokens on wakeup; every node
    forwards what it receives while it has hops left, then terminates
    with ``1``."""

    def __init__(self, origin: bool, tokens: int, hops: int):
        self.origin = origin
        self.tokens = tokens
        self.hops = hops

    def on_wakeup(self, ctx):
        if self.origin:
            for i in range(self.tokens):
                ctx.send_next(i)
            if not self.hops:
                ctx.terminate(1)

    def on_receive(self, ctx, value, sender):
        self.hops -= 1
        if ctx.out_neighbors:
            ctx.send_next(value)
        if self.hops == 0:
            ctx.terminate(1)


class TestUntracedMatchesTraced:
    """The untraced loops must reproduce the traced loop's observable
    result. On single-in-link topologies the untraced run drains inboxes
    in message order rather than global FIFO order; Kahn determinacy
    (``INVARIANTS.md``, R1) makes that invisible."""

    def test_scenario_list_covers_the_ring_family(self):
        assert "honest/alead-uni" in SINGLE_IN_LINK_SCENARIOS
        assert "honest/async-complete" not in SINGLE_IN_LINK_SCENARIOS

    @pytest.mark.parametrize("name", SINGLE_IN_LINK_SCENARIOS)
    def test_registered_scenario(self, name):
        (spec,) = [s for s in all_scenarios() if s.name == name]
        params = spec.resolve_params()
        for seed in range(6):
            traced, untraced = (
                _execute_trial(spec, params, trial_registry(seed, 0), rec, None)
                for rec in (True, False)
            )
            assert _observable(untraced) == _observable(traced), (name, seed)
            assert len(untraced.trace) == 0

    def test_budget_at_and_below_total_deliveries(self):
        from repro.protocols.alead_uni import alead_uni_protocol

        ring = unidirectional_ring(6)
        make = lambda: alead_uni_protocol(ring)  # noqa: E731
        total = run_protocol(ring, make(), seed=3).steps
        for budget in (total, total - 1):
            traced, untraced = _both_loops(ring, make, seed=3, max_steps=budget)
            assert _observable(untraced) == _observable(traced)
        exact, short = (
            run_protocol(ring, make(), seed=3, max_steps=b, record_trace=False)
            for b in (total, total - 1)
        )
        assert exact.quiesced and not exact.failed and exact.steps == total
        assert not short.quiesced and short.failed
        assert short.steps == total - 1
        assert short.fail_reason == (
            f"step budget exhausted after {total - 1} deliveries"
        )
        assert sum(len(v) for v in short.undelivered.values()) >= 1

    def test_late_messages_are_dropped_and_counted(self):
        calls = []

        class StopOnFirst(Strategy):
            def on_wakeup(self, ctx):
                pass

            def on_receive(self, ctx, value, sender):
                calls.append(value)
                ctx.terminate(1)

        class Burst(Strategy):
            def on_wakeup(self, ctx):
                for i in range(3):
                    ctx.send_next(i)
                ctx.terminate(1)

            def on_receive(self, ctx, value, sender):
                raise AssertionError("terminated on wakeup")

        ring = two_ring()
        make = lambda: {1: Burst(), 2: StopOnFirst()}  # noqa: E731
        traced, untraced = _both_loops(ring, make)
        assert _observable(untraced) == _observable(traced)
        assert untraced.steps == 3 and untraced.outcome == 1
        assert calls == [0, 0]  # one callback per loop; two drops each
        cut = run_protocol(ring, make(), max_steps=2, record_trace=False)
        assert cut.steps == 2
        assert cut.undelivered == {(1, 2): [2]}

    def test_single_processor(self):
        """n=1: the topology refuses the self-loop a one-node ring would
        need, so a lone processor has no link at all."""
        with pytest.raises(ConfigurationError):
            unidirectional_ring(1)
        with pytest.raises(ConfigurationError):
            Topology([1], [(1, 1)])
        lone = Topology([1], [])
        traced, untraced = _both_loops(lone, lambda: {1: Outputter(7)})
        assert _observable(untraced) == _observable(traced) == (7, 0, {1: 7}, None)

    def test_self_loop_is_drained_until_empty(self):
        """A node that is its own successor keeps appending to the inbox
        it is draining; the loop must serve those messages too."""

        class SelfLoopRing(Topology):
            def __init__(self):
                super().__init__([1], [])
                self._edges.append((1, 1))
                self._out[1].append(1)
                self._in[1].append(1)

        topology = SelfLoopRing()
        make = lambda: {1: Forward(origin=True, tokens=2, hops=5)}  # noqa: E731
        traced, untraced = _both_loops(topology, make)
        assert _observable(untraced) == _observable(traced)
        assert untraced.steps == 7 and untraced.outcome == 1

    def test_directed_line_with_source(self):
        line = Topology([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])

        def make():
            return {
                1: Forward(origin=True, tokens=3, hops=0),
                2: Forward(origin=False, tokens=0, hops=3),
                3: Forward(origin=False, tokens=0, hops=3),
                4: Forward(origin=False, tokens=0, hops=2),
            }

        traced, untraced = _both_loops(line, make)
        assert _observable(untraced) == _observable(traced)
        assert untraced.steps == 9 and untraced.outcome == 1

    @pytest.mark.parametrize(
        "topology, act",
        [
            (two_ring(), lambda ctx: (ctx.terminate(1), ctx.send_next("x"))),
            (two_ring(), lambda ctx: (ctx.terminate(1), ctx.send(2, "x"))),
            (two_ring(), lambda ctx: ctx.send(99, "x")),
            (two_ring(), lambda ctx: (ctx.terminate(1), ctx.terminate(2))),
            (Topology([1, 2], [(2, 1)]), lambda ctx: ctx.send_next("x")),
            (
                Topology([1, 2, 3], [(1, 2), (1, 3), (2, 1)]),
                lambda ctx: ctx.send_next("x"),
            ),
        ],
        ids=[
            "send-next-after-terminate",
            "send-after-terminate",
            "non-neighbour",
            "double-terminate",
            "send-next-no-out-link",
            "send-next-two-out-links",
        ],
    )
    def test_protocol_violations_match(self, topology, act):
        class Violator(Strategy):
            def on_wakeup(self, ctx):
                if ctx.pid == 2:
                    ctx.send(1, "go")

            def on_receive(self, ctx, value, sender):
                act(ctx)

        def make():
            return {v: Violator() for v in topology.nodes}

        messages = []
        for traced in (True, False):
            with pytest.raises(ProtocolViolation) as info:
                run_protocol(topology, make(), record_trace=traced)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_fifo_subclass_takes_the_scheduled_loop(self):
        class SpyFifo(FifoScheduler):
            def __init__(self):
                self.calls = 0

            def choose(self, ready_links):
                self.calls += 1
                return super().choose(ready_links)

        from repro.protocols.alead_uni import alead_uni_protocol

        ring = unidirectional_ring(5)
        spy = SpyFifo()
        res = run_protocol(
            ring, alead_uni_protocol(ring), scheduler=spy, seed=2,
            record_trace=False,
        )
        assert res.steps > 0 and spy.calls == res.steps
        assert _observable(res) == _observable(
            run_protocol(ring, alead_uni_protocol(ring), seed=2)
        )

    def test_two_in_links_keep_global_fifo_order(self):
        """On a bidirectional ring every node has two in-links, so the
        order across links is observable; untraced runs must still see
        the traced (global FIFO) interleaving."""

        class ArrivalOrder(Strategy):
            def __init__(self):
                self.seen = []

            def on_wakeup(self, ctx):
                for to in ctx.out_neighbors:
                    ctx.send(to, ctx.pid)

            def on_receive(self, ctx, value, sender):
                self.seen.append(sender)
                if len(self.seen) < 4:
                    for to in ctx.out_neighbors:
                        ctx.send(to, ctx.pid)
                else:
                    ctx.terminate(tuple(self.seen))

        ring = bidirectional_ring(4)
        traced, untraced = _both_loops(
            ring, lambda: {v: ArrivalOrder() for v in ring.nodes}
        )
        assert _observable(untraced) == _observable(traced)
        assert traced.failed and "disagree" in traced.fail_reason
