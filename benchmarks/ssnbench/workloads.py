"""Seeded inputs of the four ssnbench workloads.

Everything here is pure generation: no ``repro`` import, so the harness
can plan a run (and list the references it needs) without loading the
program under test.  A *request* is the JSON object a ``/simulate`` call
would send, optionally with ``"options"`` (transient-engine knobs); its
canonical text (:func:`request_id`) keys the reference tables.

Generation uses :class:`random.Random` seeded with a string, whose stream
is stable across Python versions, and stratified draws: each knob of a
category is drawn once per equal-width stratum of its range and the
strata are shuffled.  Every seed therefore gets the same mix of cheap and
expensive circuits with different values, so a seed changes the inputs
without changing how much work one run is.
"""

from __future__ import annotations

import bisect
import json
import random

TECH = "tsmc018"
WORKLOADS = ("transient_scalar", "sweep_batch", "serve_hit", "serve_mixed")
LIBRARY_WORKLOADS = WORKLOADS[:2]

#: Open-loop arrival rate of ``serve_mixed``, slots per second.  Every
#: surrogate answer and miss starts a golden computation (about 150 ms)
#: that holds the server's interpreter lock, so at this rate the
#: interpreter is busy about two thirds of the time and foreground
#: answers contend with background refinement.
MIXED_RATE = 6.0
#: Longest run the committed reference tables cover, seconds.
MAX_SECONDS = 60
#: Slot kinds of ``serve_mixed`` per block of 25 consecutive slots:
#: 40% repeats, 40% surrogate-served fresh specs, 12% misses, 8% pairs.
#: A run sends whole blocks, so every run has the same mix.
MIXED_BLOCK = ("hit",) * 10 + ("surrogate",) * 10 + ("miss",) * 3 + ("pair",) * 2
#: ``serve_hit`` requests per second of ``--seconds``: the closed loop
#: sends a fixed count, so a faster commit does the same work sooner.
HITS_PER_SECOND = 44
#: Library passes per second of ``--seconds``; one pass of either library
#: workload takes about five CPU seconds at the reference host speed
#: (:mod:`hostspeed`).
PASSES_PER_SECOND = 0.2
#: Zipf exponent of the ``serve_hit`` key popularity.
ZIPF_S = 1.2
#: Working-set size and its LC share (every 4th popularity rank is LC).
WORKING_SET = 48
LC_RANK_EVERY = 4
MC_TRIALS = 64
FIG4_DRIVERS = (1, 2, 3, 4, 6, 8, 10, 12, 14, 16)
#: ``repro surrogate fit`` default box; surrogate-class requests stay in
#: its inner half so their answers are well inside the fitted bound.
SURROGATE_BOX = {"n_drivers": (2, 12), "inductance": (2e-9, 8e-9),
                 "rise_time": (0.2e-9, 0.8e-9)}

NH = 1e-9
NS = 1e-9
PF = 1e-12


def request_id(request: dict) -> str:
    """Canonical text of a request: the key of every reference table."""
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


def montecarlo_entry(ensemble: dict) -> dict:
    """Reference entry of a Monte Carlo ensemble; its id keys the samples."""
    return {"montecarlo": ensemble["request"], "trials": ensemble["trials"],
            "seed": ensemble["seed"]}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ssnbench:{workload}:{seed}")


def _round(x: float) -> float:
    """Four significant digits: readable ids, exact JSON round trip."""
    return float(f"{x:.4g}")


def stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """``k`` draws, one uniform draw per equal stratum of [lo, hi), shuffled."""
    width = (hi - lo) / k
    values = [_round(lo + (i + rng.random()) * width) for i in range(k)]
    rng.shuffle(values)
    return values


def stratified_ints(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """``k`` integers in [lo, hi], one per stratum, shuffled."""
    return [min(hi, int(lo + v)) for v in stratified(rng, k, 0.0, hi - lo + 1.0)]


def _l_only(n, inductance, rise_time) -> dict:
    return {"n_drivers": n, "inductance": inductance, "rise_time": rise_time}


def _l_only_batch(rng, k, n_lo=1, n_hi=30) -> list[dict]:
    return [_l_only(n, L, tr) for n, L, tr in zip(
        stratified_ints(rng, k, n_lo, n_hi),
        stratified(rng, k, 2 * NH, 8 * NH),
        stratified(rng, k, 0.3 * NS, 0.8 * NS))]


def _lc_batch(rng, k) -> list[dict]:
    # Up to 2 pF (Fig. 4's doubled ground pads): larger shunts ring slower
    # and multiply the step count, so one draw would outweigh the rest.
    return [dict(_l_only(n, L, tr), capacitance=c) for n, L, tr, c in zip(
        stratified_ints(rng, k, 2, 16),
        stratified(rng, k, 2 * NH, 6 * NH),
        stratified(rng, k, 0.4 * NS, 0.7 * NS),
        stratified(rng, k, 0.5 * PF, 2 * PF))]


# -- transient_scalar ----------------------------------------------------------------


def transient_pass(seed: int) -> list[dict]:
    """One pass of single golden transients: 20 requests, shuffled.

    40% L-only (N 1..30), 20% LC, 10% R+LC, 10% non-collapsed banks,
    10% skewed launches, 10% adaptive stepping.  The costliest classes,
    whose run time grows with N, draw one N from each of two narrow bands
    (banks: 5-7 and 11-13 of the 4..16 range; skew: 3-4 and 6-7), so the
    pass's slowest circuits cost about the same for every seed.
    """
    rng = _rng("transient_scalar", seed)
    requests = _l_only_batch(rng, 8) + _lc_batch(rng, 4)
    for req, r in zip(_lc_batch(rng, 2), stratified(rng, 2, 0.2, 1.0)):
        requests.append(dict(req, resistance=r))
    for req, n in zip(_l_only_batch(rng, 2), (rng.randint(5, 7), rng.randint(11, 13))):
        requests.append(dict(req, n_drivers=n, collapse=False))
    for req, n in zip(_l_only_batch(rng, 2), (rng.randint(3, 4), rng.randint(6, 7))):
        offsets = [_round(rng.uniform(0.0, 0.3) * req["rise_time"]) for _ in range(n)]
        requests.append(dict(req, n_drivers=n, input_offsets=offsets))
    for req in _l_only_batch(rng, 2):
        requests.append(dict(req, options={"adaptive": True}))
    rng.shuffle(requests)
    return requests


# -- sweep_batch ---------------------------------------------------------------------


def sweep_pass(seed: int) -> list[dict]:
    """One pass of ensembles for ``simulate_many(engine="batch")``.

    Two Fig. 3 driver sweeps (N = 1..30), two Fig. 4-class LC driver
    sweeps (one seeded shunt capacitance each, so every sweep shares one
    time grid and batches), one adaptive sweep and one 64-trial golden
    Monte Carlo.
    """
    rng = _rng("sweep_batch", seed)
    ensembles = []
    for part, base in zip("ab", _l_only_batch(rng, 2, 1, 1)):
        ensembles.append({"kind": "sweep", "label": f"fig3-{part}", "requests": [
            dict(base, n_drivers=n) for n in range(1, 31)]})
    for part, base in zip("ab", _lc_batch(rng, 2)):
        ensembles.append({"kind": "sweep", "label": f"fig4-{part}", "requests": [
            dict(base, n_drivers=n) for n in FIG4_DRIVERS]})
    (base,) = _l_only_batch(rng, 1, 1, 1)
    ensembles.append({"kind": "sweep", "label": "adaptive", "requests": [
        dict(base, n_drivers=n, options={"adaptive": True})
        for n in range(2, 17, 2)]})
    (base,) = _l_only_batch(rng, 1, 4, 12)
    ensembles.append({"kind": "montecarlo", "label": "montecarlo",
                      "request": base, "trials": MC_TRIALS,
                      "seed": rng.randrange(2**31)})
    rng.shuffle(ensembles)
    return ensembles


# -- serve workloads -----------------------------------------------------------------


def working_set() -> list[dict]:
    """The 48 stored specs (36 L-only, 12 LC) behind every serve workload.

    Fixed, not seeded: the store holding their golden records is built
    once per source tree and copied for each run.  Seeds decide which of
    them are popular (:func:`popularity`).
    """
    rng = _rng("working_set", 0)
    lc = WORKING_SET // LC_RANK_EVERY
    return _l_only_batch(rng, WORKING_SET - lc) + _lc_batch(rng, lc)


def popularity(seed: int) -> list[int]:
    """Working-set indices by popularity rank (rank 1 first).

    Every ``LC_RANK_EVERY``-th rank holds an LC spec, so the share of
    traffic that hits the larger LC records is the same for every seed.
    """
    rng = _rng("popularity", seed)
    n_lc = WORKING_SET // LC_RANK_EVERY
    l_only = list(range(WORKING_SET - n_lc))
    lc = list(range(WORKING_SET - n_lc, WORKING_SET))
    rng.shuffle(l_only)
    rng.shuffle(lc)
    return [lc.pop() if rank % LC_RANK_EVERY == 0 else l_only.pop()
            for rank in range(1, WORKING_SET + 1)]


def library_passes(seconds: float) -> int:
    """Passes of a library run of ``seconds``: a fixed amount of work."""
    return max(1, round(seconds * PASSES_PER_SECOND))


def hit_requests(seconds: float) -> int:
    """Requests of a ``serve_hit`` run of ``seconds``."""
    return max(1, round(seconds * HITS_PER_SECOND))


def hit_stream(seed: int, n: int) -> list[tuple[int, bool]]:
    """``serve_hit`` requests: (working-set index, include_waveforms).

    Keys follow Zipf(1.2) over the popularity ranks.  Half the requests
    ask for waveforms: one of each consecutive pair, at random.
    """
    rng = _rng("serve_hit", seed)
    ranks = popularity(seed)
    cumulative, total = [], 0.0
    for rank in range(1, WORKING_SET + 1):
        total += rank ** -ZIPF_S
        cumulative.append(total)
    stream = []
    while len(stream) < n:
        waveform_at = rng.randrange(2)
        for j in range(2):
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            stream.append((ranks[min(rank, WORKING_SET - 1)], j == waveform_at))
    return stream[:n]


def _fresh(rng: random.Random, seen: set[str], draw) -> dict:
    while True:
        request = draw()
        key = request_id(request)
        if key not in seen:
            seen.add(key)
            return request


def mixed_blocks(seconds: float) -> int:
    """Whole :data:`MIXED_BLOCK` blocks nearest to ``seconds`` at the rate."""
    return max(1, round(seconds * MIXED_RATE / len(MIXED_BLOCK)))


def mixed_schedule(seed: int, seconds: float) -> list[dict]:
    """``serve_mixed`` slots at :data:`MIXED_RATE`, in :func:`mixed_blocks` blocks.

    Each slot is ``{"due", "kind", "request"}`` with kind ``hit`` (repeat
    of a stored L-only spec), ``surrogate`` (fresh spec inside the inner
    half of the surrogate box), ``miss`` (fresh out-of-box L-only or small
    LC spec) or ``pair`` (one fresh miss-class spec sent twice at once).
    Fresh specs are never repeated, so every slot's outcome is known in
    advance.  A shorter schedule is a prefix of a longer one.
    """
    rng = _rng("serve_mixed", seed)
    ws = working_set()
    seen = {request_id(r) for r in ws}
    (n_lo, n_hi), (l_lo, l_hi), (t_lo, t_hi) = (
        SURROGATE_BOX[k] for k in ("n_drivers", "inductance", "rise_time"))

    def inner(lo, hi):
        return lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)

    def surrogate_spec():
        n = rng.randint(int(inner(n_lo, n_hi)[0]) + 1, int(inner(n_lo, n_hi)[1]))
        return _l_only(n, _round(rng.uniform(*inner(l_lo, l_hi))),
                       _round(rng.uniform(*inner(t_lo, t_hi))))

    fresh_misses = 0

    def miss_spec():
        nonlocal fresh_misses
        fresh_misses += 1
        if fresh_misses % 2:
            return _l_only(rng.randint(n_hi + 1, 30),
                           _round(rng.uniform(2 * NH, 8 * NH)),
                           _round(rng.uniform(0.3 * NS, 0.8 * NS)))
        return dict(_l_only(rng.randint(2, 16), _round(rng.uniform(2 * NH, 6 * NH)),
                            _round(rng.uniform(0.4 * NS, 0.7 * NS))),
                    capacitance=_round(rng.uniform(0.5 * PF, 1.5 * PF)))

    stored = [r for r in ws if "capacitance" not in r]
    slots: list[dict] = []
    for _ in range(mixed_blocks(seconds)):
        block = list(MIXED_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "hit":
                request = stored[rng.randrange(len(stored))]
            elif kind == "surrogate":
                request = _fresh(rng, seen, surrogate_spec)
            else:
                request = _fresh(rng, seen, miss_spec)
            slots.append({"due": len(slots) / MIXED_RATE, "kind": kind,
                          "request": request})
    return slots


# -- references ----------------------------------------------------------------------


def reference_entries(workload: str, seed: int, seconds: float = MAX_SECONDS) -> dict:
    """Every golden result a run of ``workload`` can compare against.

    Maps reference id to its entry: a plain request (a golden peak) or
    ``{"montecarlo": request, "trials", "seed"}`` (a sample vector).
    """
    entries: dict[str, dict] = {}
    if workload == "transient_scalar":
        for req in transient_pass(seed):
            entries[request_id(req)] = req
    elif workload == "sweep_batch":
        for ens in sweep_pass(seed):
            if ens["kind"] == "montecarlo":
                entry = montecarlo_entry(ens)
                entries[request_id(entry)] = entry
            else:
                for req in ens["requests"]:
                    entries[request_id(req)] = req
    else:
        for req in working_set():
            entries[request_id(req)] = req
        if workload == "serve_mixed":
            for slot in mixed_schedule(seed, seconds):
                entries[request_id(slot["request"])] = slot["request"]
    return entries
