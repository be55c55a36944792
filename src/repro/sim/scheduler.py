"""Oblivious message schedulers.

The scheduler decides, at each simulator step, which link delivers its
head-of-queue message next. Schedulers are *oblivious* (paper, Section 2):
they see only which links currently hold undelivered messages — never
message contents or processor state — so their choices cannot leak
information to adversaries.

On the unidirectional ring every processor has a single incoming FIFO link,
so all schedulers produce the same local histories: each processor sees one
message sequence, and what it sends is a function of that sequence and its
private randomness (Kahn's determinacy result for process networks). The
untraced executor relies on this: with the default :class:`FifoScheduler`
on such a topology it serves inboxes in the cheapest order instead of the
global one (see :class:`~repro.sim.execution.Executor`). The variety here
matters for general topologies (Section 7) and for stress-testing protocol
implementations against delivery reorderings across links.
"""

import random
from abc import ABC, abstractmethod
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

Link = Tuple[Hashable, Hashable]


class Scheduler(ABC):
    """Picks the next link to deliver from among non-empty links."""

    @abstractmethod
    def choose(self, ready_links: Sequence[Link]) -> Link:
        """Return one element of ``ready_links`` (guaranteed non-empty)."""


class FifoScheduler(Scheduler):
    """Deliver in global send order (approximated by stable link order).

    ``ready_links`` is presented in the order links first became ready, so
    picking the head yields a breadth-first, globally fair delivery order.
    """

    def choose(self, ready_links: Sequence[Link]) -> Link:
        return ready_links[0]


class RoundRobinScheduler(Scheduler):
    """Cycle through links in a fixed rotation for balanced interleavings."""

    def __init__(self) -> None:
        self._last_index = -1

    def choose(self, ready_links: Sequence[Link]) -> Link:
        self._last_index = (self._last_index + 1) % len(ready_links)
        return ready_links[self._last_index]


class RandomScheduler(Scheduler):
    """Uniformly random choice among ready links, from a seeded stream.

    The stream is private to the scheduler; with a fixed seed the execution
    remains exactly reproducible.
    """

    def __init__(self, rng: Optional[random.Random] = None, seed: int = 0):
        self._rng = rng if rng is not None else random.Random(seed)

    def choose(self, ready_links: Sequence[Link]) -> Link:
        return self._rng.choice(list(ready_links))


class LinkPriorityScheduler(Scheduler):
    """Deliver on the lowest-priority-number ready link.

    ``priorities`` maps links to ints (missing links default to 0, ties
    broken by readiness order). This models an adversarially chosen — but
    still oblivious, since it is fixed before the execution — schedule that
    starves some links, the worst case Definition 2.3 quantifies over.
    """

    def __init__(self, priorities: Dict[Link, int]):
        self._priorities = dict(priorities)

    def choose(self, ready_links: Sequence[Link]) -> Link:
        ranked: List[Tuple[int, int, Link]] = [
            (self._priorities.get(link, 0), idx, link)
            for idx, link in enumerate(ready_links)
        ]
        ranked.sort(key=lambda t: (t[0], t[1]))
        return ranked[0][2]
