"""Test-only references that share no arithmetic with the code they check.

optimal_total_slots is an exhaustive schedule-structure reference for small
table-driven instances. It searches every RSU grant subset, every
source-to-receiver chain assignment, and every pairing decomposition, under
the same structural rules the schedulers obey: chains of at most two links,
node-disjoint links within a pairing, each vehicle sourcing at most once
overall, receivers becoming sources only after they receive. Rates are table
slot counts, so a pairing costs the longest of its links. It never calls
scheduler code.

oracle_link_sinrs is PhysicalRateModel's concurrent-link SINR computed by a
scan of its own, interferer by interferer, over the model's fixed geometry
and antenna gains; the model's SINR helpers must give its floats bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations


def optimal_total_slots(n: int, v2i_slots: dict, pair_slots: dict) -> int:
    ids = tuple(range(1, n + 1))
    pairs = {frozenset(k): v for k, v in pair_slots.items()}

    def chain_options(source, unserved):
        """Single- and two-hop chains from `source` into `unserved`."""
        for r in sorted(unserved):
            m1 = pairs.get(frozenset((source, r)))
            if m1 is None:
                continue
            yield (m1, frozenset((r,)), frozenset((source,)), frozenset((r,)))
            for g in sorted(unserved - {r}):
                m2 = pairs.get(frozenset((r, g)))
                if m2 is None:
                    continue
                yield (max(m1, m2), frozenset((r, g)),
                       frozenset((source, r)), frozenset((g,)))

    def pairings(sources, unserved):
        """All sets of node-disjoint chains the sources can run at once.
        Yields (delta, receivers, used_sources, leaf_receivers)."""
        if not sources:
            yield (0, frozenset(), frozenset(), frozenset())
            return
        head, rest = sources[0], sources[1:]
        for tail in pairings(rest, unserved):
            yield tail  # head idles
        for delta, recv, used, leaves in chain_options(head, unserved):
            for t_delta, t_recv, t_used, t_leaves in pairings(
                    rest, unserved - recv):
                yield (max(delta, t_delta), recv | t_recv, used | t_used,
                       leaves | t_leaves)

    @lru_cache(maxsize=None)
    def min_v2v(avail: frozenset, unserved: frozenset) -> float:
        if not unserved:
            return 0
        best = math.inf
        for delta, recv, used, leaves in pairings(tuple(sorted(avail)), unserved):
            if not recv:
                continue
            rest = min_v2v((avail - used) | leaves, unserved - recv)
            best = min(best, delta + rest)
        return best

    best = math.inf
    for r in range(1, n + 1):
        for subset in combinations(ids, r):
            t_v2i = sum(v2i_slots[i] for i in subset)
            if t_v2i >= best:
                continue
            t_v2v = min_v2v(frozenset(subset), frozenset(ids) - set(subset))
            best = min(best, t_v2i + t_v2v)
    assert best < math.inf  # granting everyone always works
    return int(best)


def oracle_link_sinrs(model, links):
    """Receiver SINR per link of a PhysicalRateModel when all of them
    transmit concurrently.

    A link interferes only at the receivers that are neighbours of its
    transmitter. Interferers are taken in the order of `links`, so each
    receiver adds the same terms in the same order as a scan of every
    link would."""
    victims = {}  # receiver -> indices of its links
    for m, (_, rx) in enumerate(links):
        victims.setdefault(rx, []).append(m)
    itf = [0.0] * len(links)
    for utx, urx in links:
        for rx, (d, _, _) in model._near[utx].items():
            for m in victims.get(rx, ()):
                tx = links[m][0]
                if tx == utx and rx == urx:
                    continue
                if d == 0.0:
                    itf[m] = math.inf
                    continue
                gt = model._gain(utx, urx, rx)
                gr = model._gain(rx, tx, utx)
                itf[m] += model._c_itf * gt * gr * d ** (-model._tau)
    relays = {tx for tx, _ in links} & {rx for _, rx in links}
    out = []
    for (tx, rx), interference in zip(links, itf):
        pair = model._near[rx].get(tx)
        rsi = model._rsi if rx in relays else 0.0
        out.append(0.0 if pair is None
                   else pair[1] / (model._noise + interference + rsi))
    return out
