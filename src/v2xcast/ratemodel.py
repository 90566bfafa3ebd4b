"""Rate models: the slot-rate and feasibility surface the schedulers consume.

RateModel is the written protocol: each model supplies four primitives, and
every query the schedulers derive from them is written once, on RateModel.

PhysicalRateModel evaluates the full link-budget math over the vehicle
population, with caching that exploits two facts of the scenario: all
vehicles share one speed, so pairwise distances and angles never change, and
the RSU geometry per vehicle is a closed-form function of the slot index.
V2V geometry is therefore sparse and fixed: each vehicle keeps only its
neighbours within V2V range, found by sort-and-sweep on the first V2V query,
and antenna gains are memoised per (antenna, boresight peer, probe) triple.
A V2I rate depends only on the lane and on the slot offset k = t -
entry_slot, so rates are memoised per lane in read-only blocks of BLOCK
consecutive offsets. The memo is carried across the models of one class,
radio, road and rate mode, which read a block it holds instead of computing
it again. It keeps the blocks read most recently, up to twice the most
blocks one model has read since those inputs last changed, and drops the
least recently read past that. Each class keeps a memo of its own, so a
subclass's models never read the blocks of a plain PhysicalRateModel, nor
it theirs. Beside a block a download starts in, the memo keeps a table of
the first slot count at which the running sum from each of the block's
offsets reaches the content, where an error bound shows it is
RateModel.download's, and drops it with the block. Later models read their
downloads off it: a lane's queued grants start at the same few offsets run
after run. grant_bits sums each distinct (lane, offset, count) once, with
the reference's own floats. The V2V SINR formula,
the interference term and the scan for the interferers a receiver hears are
each written once: link_sinrs sums every receiver afresh through them;
admits keeps running sums of the same terms in the same order; and phases
finds a pairing's terms once, sums every phase from them in the same order,
and reuses each rate whose SINR did not move.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import cached_property

import numpy as np

from .params import ScenarioConfig
from .radio import antenna_gain, mainlobe_gain
from .vehicles import VehicleState

Link = tuple[int, int]  # (tx id, rx id)

BLOCK = 2048  # slot offsets per V2I rate memo block
SIMPSON = (1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0)  # 8 subintervals


class _Memo:
    """The V2I memo of one model class, for the inputs `key` that its
    arrays depend on: rate blocks by (lane, block), least recently read
    first; the first-crossing tables of some of those blocks, which depend
    on the content too (see PhysicalRateModel._tabulate), each dropped
    with its block; and the most blocks one model of the class has read
    for that key."""

    def __init__(self, key: tuple):
        self.key = key
        self.blocks: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self.tables: dict[tuple[int, int], np.ndarray] = {}
        self.most = 0


# Per model class, its V2I memo; the key is (radio, road, rate mode),
# compared by value, and a model of other inputs starts a new memo.
_carries: dict[type, _Memo] = {}


def near_pairs(x: np.ndarray, y: np.ndarray, reach: float):
    """Index pairs (a, b), a != b, of the points (x, y) no more than `reach`
    apart, each unordered pair once, with their distances.

    Sort-and-sweep along x: a pair can be in reach only if its x gap is, so
    after sorting by x each point is tested only against the points that
    follow it within a searchsorted window of `reach` (widened by a relative
    1e-9 so that rounding cannot drop a pair); the exact hypot test decides.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    pad = 1e-9 * (reach + float(np.abs(xs).max(initial=0.0)))
    ends = np.searchsorted(xs, xs + (reach + pad), side="right")
    counts = ends - np.arange(1, len(xs) + 1)
    p = np.repeat(np.arange(len(xs)), counts)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[p], order[q]
    d = np.hypot(x[a] - x[b], y[a] - y[b])
    keep = d <= reach
    return a[keep], b[keep], d[keep]


class RateModel:
    """The rate-model protocol, read by both schedulers and the audit. A
    model supplies four primitives:

    v2i_rates(vid, start, count)  per-slot RSU downlink rates for slots
                                  [start, start+count), bits/s
    rate_free(i, j)               interference-free V2V rate, bits/s; 0 when
                                  the pair cannot talk
    link_sinrs(links)             receiver SINR per link when all of them
                                  transmit concurrently
    link_rates(links, sinrs=None) rate per link under that concurrency,
                                  bits/s; a model may derive them from
                                  sinrs, the link_sinrs(links) a caller
                                  already holds

    and may change _serve_radius, the radius served inside, from the RSU
    range set here. The attributes the schedulers read, config, ids,
    content_size, slot_duration, horizon, sinr_threshold and
    rate_mode, and _entry, the entry slots in an integer array indexed by
    id, are set here. Every other query is derived below, once for every
    model: entry_order from the ids and _entry, rsu_distance and the
    window_bounds arrays from the road geometry and _serve_radius, and the
    rest from the primitives, the V2I ones reading service windows from the
    window_bounds arrays. Among them,
    grant_bits(vids, starts, counts) gives the bits of many V2I grants at
    once, and phase_rows(links) the phases of a pairing many at a time,
    one phases call per row, both for the audit. A model may answer the
    hot queries (download, grant_bits, peers, admits, phases) faster, but
    with the same values the derived versions give; PhysicalRateModel, for
    one, reads download off a table per (lane, block of start - entry)
    carried with its rate memo, and computes grant_bits once per distinct
    (lane, start - entry, count), in one pass per lane.
    """

    rate_mode = "midpoint"

    def __init__(self, config: ScenarioConfig, vehicles: list[VehicleState]):
        self.config = config
        self.ids = [v.id for v in vehicles]
        self.content_size = config.road.content_size
        self.slot_duration = config.road.slot_duration
        self.horizon = config.road.horizon
        self.sinr_threshold = config.radio.sinr_threshold
        self._serve_radius = config.radio.rsu_range
        self._step = config.road.slot_duration * config.road.speed  # m per slot
        # Arrays indexed by id; index 0 unused.
        at = np.array(self.ids)
        lanes = np.array([v.lane for v in vehicles], dtype=np.int64)
        self._lane = np.zeros(max(self.ids) + 1, dtype=np.int64)
        self._lane[at] = lanes
        self._entry = np.zeros(len(self._lane), dtype=np.int64)
        self._entry[at] = np.array([v.entry_slot for v in vehicles], dtype=np.int64)
        self._dlr = np.zeros(len(self._lane))
        self._dlr[at] = config.lane_offset(lanes)
        self._lane_entry = list(zip(self._lane.tolist(), self._entry.tolist()))
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def entry_order(self) -> list[int]:
        """The ids by (entry slot, id), the order the schedulers serve in.
        Computed on each read, which each scheduler makes once per run, and
        not kept: a PhysicalRateModel has 27 instance attributes after its
        first V2V query, and at 30 CPython 3.11 reads every attribute more
        slowly (serial-tdma's schedule at 1,600 vehicles took about 4%
        longer)."""
        at = np.array(self.ids)
        return at[np.lexsort((at, self._entry[at]))].tolist()

    # ---- V2I ----

    def rsu_distance(self, vid: int, t: int) -> float:
        """Mid-slot RSU distance, meters."""
        entry = self._lane_entry[vid][1]
        x = (t - entry + 0.5) * self._step - self.config.road.rsu_longitudinal
        return math.hypot(x, self._dlr[vid])

    def window_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """First and last slot of every vehicle's service window, as arrays
        indexed by id: the slots from its entry on whose mid-slot RSU
        distance is within _serve_radius, clipped to the horizon (the
        chord of that radius through the vehicle's lane). A vehicle that
        can never be served has a last slot below any clock. Built once."""
        if self._bounds is None:
            road, radius, d_lr = self.config.road, self._serve_radius, self._dlr
            entry = self._entry
            reach = d_lr < radius
            half_chord = np.sqrt(np.where(reach, radius * radius - d_lr * d_lr, 0.0))
            lo = entry - 0.5 + (road.rsu_longitudinal - half_chord) / self._step
            hi = entry - 0.5 + (road.rsu_longitudinal + half_chord) / self._step
            # Clipped before the casts: on a slow road lo passes int64.
            first = np.clip(np.ceil(lo), entry, self.horizon).astype(np.int64)
            last = np.minimum(np.floor(hi), self.horizon - 1).astype(np.int64)
            never = ~reach | (last < first)
            never[0] = True
            first[never] = 0
            last[never] = np.iinfo(np.int64).min
            self._bounds = first, last
        return self._bounds

    def _scan_length(self, r_start: float, r_end: float, span: int) -> int:
        """How many of `span` slots download looks at, from the rates of its
        first and last slot. Rates are unimodal over the pass, so the lower
        end rate bounds the rest: while it is positive, no more slots are
        scanned than a download at that rate would take."""
        r_min, dt = min(r_start, r_end), self.slot_duration
        return min(span, int(math.ceil(self.content_size / (r_min * dt))) + 2) \
            if r_min > 0 else span

    def download(self, vid: int, start: int, end: int) -> tuple[int, bool]:
        """Slots from `start` until the content has arrived, and True; when
        slots [start, end] fall short, the scanned slots and False. The bits
        of n slots are their rates' running sum from `start`, times the slot
        duration: the reference every model's download must equal."""
        cap = self._scan_length(self.v2i_rates(vid, start, 1)[0],
                                self.v2i_rates(vid, end, 1)[0], end - start + 1)
        cum = np.cumsum(self.v2i_rates(vid, start, cap)) * self.slot_duration
        n = min(int(np.searchsorted(cum, self.content_size, side="left")) + 1, cap)
        return n, bool(cum[n - 1] >= self.content_size)

    def grant_bits(self, vids, starts, counts) -> np.ndarray:
        """Bits each grant delivers, for arrays of grant vehicles, first
        slots and slot counts, every count positive: the rates v2i_rates
        gives for its slots, laid end to end and summed per grant by one
        np.add.reduceat, times the slot duration. The reference every
        model's grant_bits must equal."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size == 0:
            return np.zeros(0)
        rates = np.concatenate([self.v2i_rates(v, s, n) for v, s, n in zip(
            np.asarray(vids).tolist(), np.asarray(starts).tolist(), counts.tolist())])
        return np.add.reduceat(rates, np.cumsum(counts) - counts) * self.slot_duration

    def slots_to_download(self, vid: int, start: int) -> int | None:
        """Smallest slot count to accumulate the content from `start`, with
        every slot inside the serving window; None when impossible."""
        first, last = self.window_bounds()
        end = int(last[vid])
        if not first[vid] <= start <= end:
            return None
        if self.content_size <= 0:
            return 0
        n, complete = self.download(vid, start, end)
        return n if complete else None

    # ---- V2V ----

    def slots_at_rate(self, rate: float) -> int:
        """Slots to carry the whole content at a constant positive rate."""
        return max(1, int(math.ceil(self.content_size / (rate * self.slot_duration))))

    def in_range(self, i: int, j: int) -> bool:
        return self.rate_free(i, j) > 0.0

    def peers(self, vid: int):
        """Every vehicle j with rate_free(vid, j) > 0, and maybe others;
        never vid itself."""
        return [j for j in self.ids if j != vid]

    def link_slots_free(self, i: int, j: int) -> int | None:
        """Interference-free transfer slots; None when out of range."""
        r = self.rate_free(i, j)
        return self.slots_at_rate(r) if r > 0.0 else None

    def set_feasible(self, links: list[Link]) -> bool:
        return all(s >= self.sinr_threshold for s in self.link_sinrs(links))

    def admits(self, committed: list[Link], link: Link) -> bool:
        """Whether `link` can join `committed` with every link at or above
        the SINR threshold: set_feasible(committed + [link])."""
        return self.set_feasible(committed + [link])

    def phases(self, links: list[Link]):
        """The phases of a pairing: a function of the active positions of
        `links`, an integer array, that gives their SINRs and rates, as
        float arrays, while those links transmit concurrently."""
        def phase(active: np.ndarray):
            now = [links[m] for m in active]
            sinrs = self.link_sinrs(now)
            return (np.array(sinrs, dtype=float),
                    np.array(self.link_rates(now, sinrs), dtype=float))
        return phase

    def phase_rows(self, links: list[Link]):
        """The phases of a pairing by rows: a function of a boolean mask,
        one row per phase and one column per position of `links`, True
        where the link is on the air, that gives the SINRs and rates of
        every (phase, link) as float arrays shaped like the mask. A rate
        off the air is 0 and a SINR there is NaN. Each row is one call of
        the phase function of phases(links)."""
        phase = self.phases(links)

        def rows(on: np.ndarray):
            sinrs, rates = np.full(on.shape, np.nan), np.zeros(on.shape)
            for r, row in enumerate(on):
                active = np.flatnonzero(row)
                sinrs[r, active], rates[r, active] = phase(active)
            return sinrs, rates
        return rows


class PhysicalRateModel(RateModel):
    def __init__(self, config: ScenarioConfig, vehicles: list[VehicleState],
                 rate_mode: str = "midpoint"):
        if rate_mode not in ("midpoint", "quadrature"):
            raise ValueError(f"unknown rate mode {rate_mode!r}")
        super().__init__(config, vehicles)
        self.rate_mode = rate_mode
        radio, road = config.radio, config.road

        # Positions at slot 0, indexed by id; index 0 unused.
        self._x0 = -self._entry.astype(float) * self._step
        self._y = np.zeros(len(self._entry))
        at = np.array(self.ids)
        self._y[at] = (self._lane[at] - 0.5) * road.lane_width
        # V2I rate memo: (lane, k // BLOCK) -> rates of that block's offsets.
        # _blocks holds the blocks this model has read, each taken from the
        # class's memo as it is, never copied.
        key = (radio, road, rate_mode)
        memo = _carries.get(type(self))
        if memo is None or memo.key != key:
            memo = _carries[type(self)] = _Memo(key)
        self._memo = memo
        self._blocks: dict[tuple[int, int], np.ndarray] = {}

        g = mainlobe_gain(radio)
        self._noise = radio.noise_floor_w
        self._tau = radio.pathloss_exponent
        self._c_rsu = radio.path_constant * radio.tx_power_rsu * g * g
        self._c_veh = radio.path_constant * radio.tx_power_vehicle * g * g
        self._c_itf = radio.mui_factor * radio.path_constant * radio.tx_power_vehicle
        self._rsi = radio.si_cancel * radio.tx_power_vehicle

        # QoS-feasible radius: SNR(d) >= threshold; serving needs both range
        # and QoS. One past the float range does not narrow the RSU range.
        try:
            self._serve_radius = min(self._serve_radius, (
                self._c_rsu / (self._noise * radio.sinr_threshold)) ** (1.0 / self._tau))
        except OverflowError:
            pass

        self._gains: dict[tuple[int, int, int], float] = {}
        self._fold = _Fold()

    @cached_property
    def _near(self) -> list[dict[int, tuple[float, float, float]]]:
        """_near[i] maps each neighbour j of vehicle i to (distance, received
        power, interference-free rate). _x0 holds virtual positions at slot
        0; only differences matter and they are constant over time, so V2V
        geometry is computed once, on the first V2V query, for the pairs
        within V2V range only."""
        radio = self.config.radio
        a, b, dist = near_pairs(self._x0[1:], self._y[1:], radio.v2v_range)
        with np.errstate(divide="ignore"):
            pr = self._c_veh * dist ** (-self._tau)
        rate = radio.bandwidth * np.log2(1.0 + pr / self._noise)
        near: list[dict] = [{} for _ in range(len(self._x0))]
        for i, j, *pair in zip((a + 1).tolist(), (b + 1).tolist(),
                               dist.tolist(), pr.tolist(), rate.tolist()):
            near[i][j] = near[j][i] = tuple(pair)
        return near

    # ---- V2I ----

    def _snr_of_distance(self, d: np.ndarray) -> np.ndarray:
        radio = self.config.radio
        snr = self._c_rsu * d ** (-self._tau) / self._noise
        return np.where(d <= radio.rsu_range, snr, 0.0)

    def _block(self, lane: int, b: int) -> np.ndarray:
        """Read-only rates, bits/s, of a vehicle in `lane` at the slot
        offsets [b * BLOCK, (b + 1) * BLOCK) from its entry slot: this
        model's, else the memo's, else computed. A block this model reads
        first moves to the memo's newest end, or enters it there; then the
        oldest are dropped until the memo holds at most twice the most
        blocks one model has read. While one model of the class reads at a
        time, its blocks are the newest, so none of them is dropped."""
        key = lane, b
        rates = self._blocks.get(key)
        if rates is not None:
            return rates
        memo = self._memo
        rates = memo.blocks.get(key)
        if rates is None:
            rates = memo.blocks[key] = self._compute_block(lane, b)
        else:
            memo.blocks.move_to_end(key)
        self._blocks[key] = rates
        memo.most = max(memo.most, len(self._blocks))
        while len(memo.blocks) > 2 * memo.most:
            memo.tables.pop(memo.blocks.popitem(last=False)[0], None)
        return rates

    def _compute_block(self, lane: int, b: int) -> np.ndarray:
        """The rates of _block, computed afresh and read-only."""
        radio, road = self.config.radio, self.config.road
        d_lr = self.config.lane_offset(lane)
        k = np.arange(b * BLOCK, (b + 1) * BLOCK, dtype=float)
        if self.rate_mode == "midpoint":
            d = np.hypot((k + 0.5) * self._step - road.rsu_longitudinal, d_lr)
            rates = radio.bandwidth * np.log2(1.0 + self._snr_of_distance(d))
        else:
            # Simpson with 8 subintervals over the in-slot angle sweep. The
            # columns are summed one by one, left to right, so that a slot's
            # rate does not depend on a BLAS kernel or its thread count.
            xa = k * self._step - road.rsu_longitudinal
            phi_a = np.arctan(xa / d_lr)
            phi_b = np.arctan((xa + self._step) / d_lr)
            h = (phi_b - phi_a) / 8.0
            phi = phi_a[:, None] + h[:, None] * np.arange(9)[None, :]
            cos = np.cos(phi)
            d = d_lr / cos
            f = (radio.bandwidth * np.log2(1.0 + self._snr_of_distance(d))
                 * d_lr / (road.speed * cos ** 2))
            total = f[:, 0] * SIMPSON[0]
            for i in range(1, 9):
                total = total + f[:, i] * SIMPSON[i]
            rates = total * h / 3.0 / road.slot_duration
        rates.setflags(write=False)
        return rates

    def v2i_rates(self, vid: int, start: int, count: int) -> np.ndarray:
        """Per-slot downlink rates for slots [start, start+count), bits/s,
        read-only: a view of one memo block, or of a copy where the slots
        span several."""
        lane, entry = self._lane_entry[vid]
        b, lo = divmod(start - entry, BLOCK)
        if lo + count <= BLOCK:
            return self._block(lane, b)[lo:lo + count]
        last = b + (lo + count - 1) // BLOCK
        rates = np.concatenate([self._block(lane, c) for c in range(b, last + 1)])
        rates.setflags(write=False)
        return rates[lo:lo + count]

    def download(self, vid: int, start: int, end: int) -> tuple[int, bool]:
        """RateModel.download's answer, read off the table of the block that
        holds s = start - entry (_tabulate) and the scan length cap of the
        reference, from the memo's rates at s and end - entry. An entry j
        says that the reference's running sum from s stays below the
        content for every count below |j|, and for j > 0 that it reaches
        the content at j; so a cap below |j| gives (cap, False), and else
        a positive j gives (j, True). A table that does not reach the scan
        is built again to reach it; an entry of 0 goes to the reference."""
        lane, entry = self._lane_entry[vid]
        s, e = start - entry, end - entry
        b, i = divmod(s, BLOCK)
        cap = self._scan_length(self._block(lane, b)[i],
                                self._block(lane, e // BLOCK)[e % BLOCK], e - s + 1)
        table = self._memo.tables.get((lane, b))
        j = 0 if table is None else int(table[i])
        if table is None or -cap <= j < 0:
            j = int(self._tabulate(lane, b, cap)[i])
        if cap < abs(j):
            return cap, False
        if j > 0:
            return j, True
        return RateModel.download(self, vid, start, end)

    def _tabulate(self, lane: int, b: int, cap: int) -> np.ndarray:
        """The first-crossing table of block b of `lane`, for scans of up to
        `cap` slots from each of its offsets: one entry per offset, read as
        download's docstring says. It is carried in the memo beside block b
        when every block it was computed from is the memo's own.

        P is the running sum, from 0.0 in offset order, of the rates of the
        blocks from b on that hold cap slots past the block's last offset.
        One searchsorted on P guesses each offset's slot count j, and the
        guess stands only where the certificate below shows that
        RateModel.download's running sum gives the same answer. With u =
        2**-53, N the table's rate count and T its last value, each entry of
        P is a recursive sum of at most N non-negative rates, within gamma_N
        * T of the exact sum (gamma_N = N u / (1 - N u), Higham, Accuracy
        and Stability of Numerical Algorithms, 4.2); so is the reference's
        running sum of j <= N of them. The difference of two entries, and
        each product by the slot duration dt, round by a further u. P's
        bits of j slots, fl(D_j dt), and the reference's therefore differ by
        at most (3 gamma_N + 5u) T dt to first order, and Delta = 4 (N + 2)
        u (T dt + need) bounds that with room for the second-order terms and
        the rounding of need +- Delta. If fl(D_j dt) >= need + Delta and
        fl(D_(j-1) dt) < need - Delta, the reference's sum, non-decreasing
        in j, first reaches need at j; if the bits of the L slots P holds
        from the offset are below need - Delta, it does not reach need
        within L, the entry -(L + 1). Every other entry is 0, every entry
        of a P whose last value is not finite among them. The dtype is the
        narrowest that holds -(N + 1)."""
        count = -(-(BLOCK - 1 + cap) // BLOCK)
        blocks = [self._block(lane, c) for c in range(b, b + count)]
        table = np.cumsum(np.concatenate([np.zeros(1), *blocks]))
        n, dt, need = len(table) - 1, self.slot_duration, self.content_size
        delta = 4 * (n + 2) * 2.0 ** -53 * (float(table[-1]) * dt + need)
        base, at = table[:BLOCK], np.arange(BLOCK)
        k = np.clip(table.searchsorted(base + need / dt), at + 1, n)
        bits = (table[k] - base) * dt
        reached = (bits >= need + delta) & ((table[k - 1] - base) * dt < need - delta)
        short = (k == n) & (bits < need - delta)
        j = np.where(reached, k - at, np.where(short, at - n - 1, 0))
        j = j.astype(np.min_scalar_type(-n - 1))
        memo = self._memo
        if all(memo.blocks.get((lane, c)) is r for c, r in enumerate(blocks, b)):
            memo.tables[lane, b] = j
        return j

    def grant_bits(self, vids, starts, counts) -> np.ndarray:
        """RateModel.grant_bits, in one pass per lane. A rate depends only
        on the lane and the offset k = start - entry, so one np.lexsort per
        lane groups its grants by (k, count), and only the first of each
        group is summed. Those read just the memo blocks they cover, each
        once, with one v2i_rates call for one vehicle of the lane, laid end
        to end in block order; one np.add.reduceat over every slice's start
        and end sums them all (the sums from an end to the next start are
        dropped), and each sum is scattered back to its group. Blocks are
        found by their sorted numbers, so offsets before the entry or far
        past the window cost only the blocks they cover."""
        vids = np.asarray(vids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        k = np.asarray(starts, dtype=np.int64) - self._entry[vids]
        lanes = self._lane[vids]
        bits = np.zeros(len(vids))
        for lane in sorted(set(lanes.tolist())):
            mine = np.flatnonzero(lanes == lane)
            mine = mine[np.lexsort((counts[mine], k[mine]))]
            head = np.ones(len(mine), dtype=bool)
            head[1:] = (np.diff(k[mine]) != 0) | (np.diff(counts[mine]) != 0)
            ks, ns = k[mine[head]], counts[mine[head]]
            first, last = ks // BLOCK, (ks + ns - 1) // BLOCK
            blocks = sorted({b for f, l in zip(first.tolist(), last.tolist())
                             for b in range(f, l + 1)})
            vid = int(vids[mine[0]])
            entry = self._lane_entry[vid][1]
            rates = np.concatenate([
                *(self.v2i_rates(vid, entry + b * BLOCK, BLOCK) for b in blocks),
                np.zeros(1)])  # so that a slice may end at the last block's end
            at = np.searchsorted(blocks, first) * BLOCK + ks % BLOCK
            sums = np.add.reduceat(rates, np.column_stack((at, at + ns)).ravel())[::2]
            bits[mine] = sums[np.cumsum(head) - 1]
        return bits * self.slot_duration

    # ---- V2V ----

    def rate_free(self, i: int, j: int) -> float:
        """Interference-free link rate, bits/s; 0 when out of range."""
        pair = self._near[i].get(j)
        return 0.0 if pair is None else pair[2]

    def _angle(self, at: int, toward_a: int, toward_b: int) -> float:
        ax = self._x0[toward_a] - self._x0[at]
        ay = self._y[toward_a] - self._y[at]
        bx = self._x0[toward_b] - self._x0[at]
        by = self._y[toward_b] - self._y[at]
        dot = ax * bx + ay * by
        norm = math.hypot(ax, ay) * math.hypot(bx, by)
        if norm == 0.0:
            return 0.0  # a co-located peer: no direction, so no misalignment
        return math.acos(max(-1.0, min(1.0, dot / norm)))

    def _gain(self, at: int, toward_a: int, toward_b: int) -> float:
        """Gain of the antenna at `at`, aimed at `toward_a`, toward
        `toward_b`. Memoised: every angle is fixed for the whole run."""
        key = (at, toward_a, toward_b)
        try:
            return self._gains[key]
        except KeyError:
            radio = self.config.radio
            g = self._gains[key] = antenna_gain(
                self._angle(at, toward_a, toward_b), radio.beamwidth,
                radio.sidelobe_gain)
            return g

    def link_sinrs(self, links: list[Link]) -> list[float]:
        """Receiver SINR per link when all of them transmit concurrently,
        each receiver's interference summed afresh; a receiver relays when
        its node transmits on a link of the set."""
        by_tx = _index(links)
        return [self._sinr(l, self._interference(links, by_tx, l), l[1] in by_tx)
                for l in links]

    def link_rates(self, links: list[Link], sinrs=None) -> list[float]:
        w = self.config.radio.bandwidth
        if sinrs is None:
            sinrs = self.link_sinrs(links)
        return [w * math.log2(1.0 + s) if s > 0 else 0.0 for s in sinrs]

    # ---- V2V, incremental ----
    #
    # A receiver's interference adds one term per link whose transmitter it
    # hears, in link order (_interference). A term depends only on the
    # interfering link and the receiver's link, so a running sum kept in
    # that order, plus a term added last, is the float a fresh sum gives,
    # and a sum whose terms did not change can be reused as it is.
    # link_sinrs sums every receiver afresh; admits keeps the running sums,
    # to touch only the links near a change; phases keeps a pairing's terms
    # and sums them again, in that order, for each active set. The test
    # oracle in tests/oracle.py sums them its own way.

    def peers(self, vid: int):
        return self._near[vid].keys()

    def _term(self, utx: int, urx: int, tx: int, rx: int) -> float:
        """The interference term of link (utx, urx) at the receiver of link
        (tx, rx), a neighbour of utx."""
        d = self._near[utx][rx][0]
        if d == 0.0:
            return math.inf
        return (self._c_itf * self._gain(utx, urx, rx) * self._gain(rx, tx, utx)
                * d ** (-self._tau))

    def _sinr(self, link: Link, interference: float, relay: bool) -> float:
        tx, rx = link
        pair = self._near[rx].get(tx)
        rsi = self._rsi if relay else 0.0
        return 0.0 if pair is None else pair[1] / (self._noise + interference + rsi)

    def _heard(self, links: list[Link], by_tx: dict, link: Link) -> list[int]:
        """The positions of `links`, in list order, whose transmitter
        neighbours link's receiver; link itself left out. `by_tx` indexes
        `links` by transmitter."""
        rx = link[1]
        return [u for u in sorted(m for t in self._near[rx] for m in by_tx.get(t, ()))
                if links[u] != link]

    def _interference(self, links: list[Link], by_tx: dict, link: Link) -> float:
        """Interference at link's receiver from `links`, added in list
        order."""
        total = 0.0
        for u in self._heard(links, by_tx, link):
            total += self._term(*links[u], *link)
        return total

    def _join(self, fold: _Fold, link: Link):
        """What `link` joining the folded set changes: the new interference
        of every link whose SINR moves, by index, `link` itself last at
        index len(fold.links); and the nodes that relay once it joins. Only
        the links whose receiver hears link's transmitter, and those whose
        receiver link turns into a relay, can move."""
        links, by_rx = fold.links, fold.by_rx
        tx, rx = link
        changed = {}
        for r in self._near[tx]:
            for m in by_rx.get(r, ()):
                if links[m] != link:
                    changed[m] = fold.itf[m] + self._term(tx, rx, *links[m])
        relays = {n for n in (tx, rx) if (n == tx or n in fold.by_tx)
                  and (n == rx or n in by_rx)}
        for n in relays - fold.relays:
            for m in by_rx.get(n, ()):
                changed.setdefault(m, fold.itf[m])
        changed[len(links)] = self._interference(links, fold.by_tx, link)
        return changed, relays

    def _weak(self, fold: _Fold, link: Link, changed: dict, relays: set):
        """Indices among `changed` whose SINR fails set_feasible's test
        (NaN included) once `link` has joined."""
        n = len(fold.links)
        for m, itf in changed.items():
            l = fold.links[m] if m < n else link
            if not self._sinr(l, itf, l[1] in relays or l[1] in fold.relays) \
                    >= self.sinr_threshold:
                yield m

    def _folded(self, committed: list[Link]) -> _Fold:
        """The fold of `committed`, extending the kept one when it folded a
        prefix of committed, else starting over."""
        fold = self._fold
        if committed[:len(fold.links)] != fold.links:
            fold = self._fold = _Fold()
        for link in committed[len(fold.links):]:
            changed, relays = self._join(fold, link)
            weak = set(self._weak(fold, link, changed, relays))
            fold.by_tx.setdefault(link[0], []).append(len(fold.links))
            fold.by_rx.setdefault(link[1], []).append(len(fold.links))
            fold.links.append(link)
            fold.itf.append(0.0)
            fold.relays |= relays
            for m, itf in changed.items():
                fold.itf[m] = itf
            fold.weak = (fold.weak - changed.keys()) | weak
        return fold

    def admits(self, committed: list[Link], link: Link) -> bool:
        """set_feasible(committed + [link]), checking only the links that
        `link` changes. Committed links it leaves alone keep their SINR, and
        adding a link never raises one, so a committed link already below
        the threshold decides the answer alone."""
        fold = self._folded(committed)
        if fold.weak:
            return False
        changed, relays = self._join(fold, link)
        return next(self._weak(fold, link, changed, relays), None) is None

    def phases(self, links: list[Link]):
        """RateModel.phases, from the pairing's (interferer, victim, term)
        table, found once through the scan link_sinrs makes.

        A phase sums each receiver's terms whose interferer is on the air
        with one np.bincount, which adds in table order, link order per
        receiver, from 0.0: _interference's floats. The SINRs are then
        _sinr's formula elementwise, a receiver relaying while a link from
        its node is on the air. A rate is link_rates of its SINR, so the
        function keeps each position's last SINR and rate, and calls
        link_rates only for the active positions whose SINR moved."""
        n, by_tx = len(links), _index(links)
        table = [(u, v, self._term(*links[u], *link)) for v, link in enumerate(links)
                 for u in self._heard(links, by_tx, link)]
        u, v = np.array([e[:2] for e in table], dtype=np.int64).reshape(-1, 2).T
        term = np.array([e[2] for e in table])
        # (position, position of a link its receiver transmits on)
        hub, out = np.array([(m, t) for m, (_, rx) in enumerate(links)
                             for t in by_tx.get(rx, ())], dtype=np.int64).reshape(-1, 2).T
        desired = np.array([self._near[rx].get(tx, (0.0, 0.0))[1] for tx, rx in links])
        kept_sinr, kept_rate = np.full(n, np.nan), np.zeros(n)

        def phase(active: np.ndarray):
            on = np.zeros(n, dtype=bool)
            on[active] = True
            heard = on[u]
            itf = np.bincount(v[heard], term[heard], minlength=n)
            rsi = np.zeros(n)
            rsi[hub[on[out]]] = self._rsi
            with np.errstate(invalid="ignore"):
                now = desired / (self._noise + itf + rsi)
            fresh = np.flatnonzero(on & (now != kept_sinr))
            kept_sinr[fresh] = sinrs = now[fresh]
            kept_rate[fresh] = self.link_rates([links[m] for m in fresh.tolist()],
                                               sinrs.tolist())
            return now[active], kept_rate[active]
        return phase


class _Fold:
    """PhysicalRateModel.admits's state for one committed link list: each
    link's interference from the others, summed in list order; the link
    indices by transmitter and by receiver; the relay nodes; and the
    indices of links below the SINR threshold."""

    def __init__(self):
        self.links: list[Link] = []
        self.itf: list[float] = []
        self.by_tx: dict[int, list[int]] = {}
        self.by_rx: dict[int, list[int]] = {}
        self.relays: set[int] = set()
        self.weak: set[int] = set()


def _index(links: list[Link]) -> dict[int, list[int]]:
    """The positions of `links` by transmitter, in list order."""
    index: dict[int, list[int]] = {}
    for m, link in enumerate(links):
        index.setdefault(link[0], []).append(m)
    return index
