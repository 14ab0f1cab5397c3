"""Seeded inputs of each workload.

Everything the server receives is generated here from the benchmark's
``--seed``; the same seed gives the same bytes, another seed does not.
"""

from __future__ import annotations

import json
from typing import List, Tuple

import numpy as np

#: Panel count of every request (the ROADMAP's default request).
N_PANELS = 200

#: The sections and angles whose 16 combinations make the hot key set.
HOT_AIRFOILS = ("0012", "2412", "4412", "23012")
HOT_ALPHAS = (0.0, 2.0, 4.0, 6.0)
HOT_REYNOLDS = 1e6

#: Durable GA job shape (the paper's outer loop, scaled to the host).
GA_POPULATION = 64
GA_GENERATIONS = 16


def encode(payload: dict) -> bytes:
    """Compact, key-sorted JSON bytes of one request payload."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """*count* stratified uniforms on [0, 1) in a seeded random order."""
    return (rng.permutation(count) + rng.uniform(size=count)) / count


def cold_payloads(count: int, seed: int) -> List[dict]:
    """*count* distinct default requests: viscous on, n = 200.

    A NACA 4-digit section (camber 0-6 %, camber position 20-60 % of
    chord, thickness 9-18 %), alpha in [-2, 8] degrees and Re in
    [5e5, 3e6].  Each of the four draws is stratified (a Latin
    hypercube), so every seed covers the ranges evenly and only the
    pairing and order change.  Duplicates would be redrawn, so every
    request misses the cache.
    """
    rng = _rng(seed, 1)
    seen = set()
    payloads: List[dict] = []
    while len(payloads) < count:
        need = count - len(payloads)
        cambers = np.floor(_strata(rng, need) * 7).astype(int)
        thicknesses = 9 + np.floor(_strata(rng, need) * 10).astype(int)
        alphas = -2.0 + 10.0 * _strata(rng, need)
        reynolds = 5e5 + 2.5e6 * _strata(rng, need)
        for camber, thickness, alpha, re in zip(cambers, thicknesses,
                                                alphas, reynolds):
            position = int(rng.integers(2, 7)) if camber else 0
            payload = {
                "airfoil": f"{camber}{position}{thickness:02d}",
                "alpha_degrees": round(float(alpha), 4),
                "reynolds": float(round(float(re))),
                "n_panels": N_PANELS,
            }
            key = encode(payload)
            if key not in seen:
                seen.add(key)
                payloads.append(payload)
    return payloads


def hot_keys() -> List[dict]:
    """The 16 payloads the hot workload repeats (pre-warmed at set-up)."""
    return [{"airfoil": airfoil, "alpha_degrees": alpha,
             "reynolds": HOT_REYNOLDS, "n_panels": N_PANELS}
            for airfoil in HOT_AIRFOILS for alpha in HOT_ALPHAS]


def hot_choices(count: int, seed: int) -> List[int]:
    """Which hot key each of *count* requests sends.

    Every key is sent equally often (to within one), in a seeded
    random order.
    """
    rng = _rng(seed, 2)
    keys = len(hot_keys())
    return [int(k) for k in rng.permutation(np.arange(count) % keys)]


def warmup_payload(seed: int) -> dict:
    """A request outside every workload's key set (spawns workers)."""
    return {"airfoil": "0008", "alpha_degrees": 1.0 + (int(seed) % 97) / 1e3,
            "reynolds": 2e6, "n_panels": N_PANELS}


def ga_spec(seed: int, index: int) -> dict:
    """The durable GA job spec of the *index*-th job in a run."""
    return {
        "seed": (int(seed) * 1009 + int(index)) % (2 ** 31),
        "checkpoint_every": 1,
        "ga": {"population_size": GA_POPULATION,
               "generations": GA_GENERATIONS},
        "fitness": {"n_panels": N_PANELS},
    }


def sample_indices(count: int, sample: int, seed: int) -> Tuple[int, ...]:
    """A seeded sample of request indices for the reference recompute."""
    rng = _rng(seed, 3)
    chosen = rng.choice(count, size=min(sample, count), replace=False)
    return tuple(sorted(int(i) for i in chosen))
