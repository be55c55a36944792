"""A-LEADuni: the Abraham et al. ring protocol (Section 3, Appendix A).

Secret sharing with a one-round buffering delay that forces processors to
commit to their secret before learning anyone else's:

- the **origin** (processor 1) wakes spontaneously, sends its secret, then
  behaves like a pipe: it forwards its first ``n-1`` incoming messages and
  validates that the n-th equals its own secret;
- every **normal** processor holds a one-message buffer primed with its
  secret: upon each incoming message it first sends the buffer, then stores
  the incoming value. Its n-th incoming message must equal its own secret.

Every processor sums its ``n`` incoming values and elects
``residue_to_id(sum mod n)``. A deviation is punished by aborting (⊥),
which forces the global outcome to ``FAIL`` (solution preference makes this
a deterrent).

An honest run's outcome is a closed form over the processors' secrets;
:func:`alead_uni_leader` evaluates it straight from the trial's streams,
which is what the Monte-Carlo batch kernels fold instead of executing.
"""

import random
from typing import Any, Dict, Hashable

from repro.protocols.outcome import residue_to_id
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod
from repro.util.rng import derive_seed

#: The distinguished spontaneously-waking processor (paper: processor 1).
ORIGIN_ID = 1


class ALeadOriginStrategy(Strategy):
    """Origin: send secret, forward ``n-1`` messages, validate the n-th."""

    __slots__ = ("n", "secret", "rounds", "total")

    def __init__(self, n: int):
        self.n = n
        self.secret: int = None
        self.rounds = 0
        self.total = 0

    def on_wakeup(self, ctx: Context) -> None:
        self.secret = ctx.rng.randrange(self.n)
        ctx.send_next(self.secret)

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        value = canonical_mod(int(value), self.n)
        self.rounds += 1
        self.total = canonical_mod(self.total + value, self.n)
        if self.rounds < self.n:
            ctx.send_next(value)  # pipe behaviour: receive and send at once
        else:
            if value == self.secret:
                ctx.terminate(residue_to_id(self.total, self.n))
            else:
                ctx.abort("alead-uni origin: own secret did not return")


class ALeadNormalStrategy(Strategy):
    """Normal processor: one-message buffer primed with the secret."""

    __slots__ = ("n", "buffer", "secret", "rounds", "total")

    def __init__(self, n: int):
        self.n = n
        self.buffer: int = None  # holds the secret until the first receive
        self.secret: int = None
        self.rounds = 0
        self.total = 0

    def on_wakeup(self, ctx: Context) -> None:
        self.secret = ctx.rng.randrange(self.n)
        self.buffer = self.secret

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        value = canonical_mod(int(value), self.n)
        ctx.send_next(self.buffer)  # send the delayed message first
        self.buffer = value
        self.rounds += 1
        self.total = canonical_mod(self.total + value, self.n)
        if self.rounds == self.n:
            if value == self.secret:
                ctx.terminate(residue_to_id(self.total, self.n))
            else:
                ctx.abort("alead-uni: own secret did not return")


def alead_uni_protocol(topology: Topology) -> Dict[Hashable, Strategy]:
    """Honest A-LEADuni strategy vector; origin is node ``1``."""
    n = len(topology)
    if ORIGIN_ID not in set(topology.nodes):
        raise ConfigurationError("A-LEADuni requires node 1 as origin")
    protocol: Dict[Hashable, Strategy] = {}
    for pid in topology.nodes:
        if pid == ORIGIN_ID:
            protocol[pid] = ALeadOriginStrategy(n)
        else:
            protocol[pid] = ALeadNormalStrategy(n)
    return protocol


def alead_uni_leader(registry_seed: int, n: int) -> int:
    """The id an honest A-LEADuni run on ``n`` processors elects, given
    the seed of the :class:`~repro.util.rng.RngRegistry` it runs from.

    Processor ``i``'s secret is the first ``randrange(n)`` of its stream
    ``proc:<i>``; in an honest run every secret returns intact and every
    processor elects ``residue_to_id(Σ secrets mod n)``. That run takes
    exactly ``n²`` steps: each of the ``n`` processors sends ``n``
    messages.
    """
    total = 0
    for pid in range(1, n + 1):
        stream = random.Random(derive_seed(registry_seed, f"proc:{pid}"))
        total += stream.randrange(n)
    return residue_to_id(total % n, n)
