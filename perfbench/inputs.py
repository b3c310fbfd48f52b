"""Seed-derived inputs of the benchmark workloads.

The benchmark owns its inputs: every sweep seed, campaign seed and serve
query below is derived here from the workload seed, and the program only
ever receives the generated values.  Nothing in this module imports the
program.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

__all__ = [
    "UTILIZATION_GROUPS",
    "derive_seed",
    "serve_round",
]

#: The paper's ten normalized-utilization groups (Table 3).
UTILIZATION_GROUPS: Tuple[Tuple[float, float], ...] = tuple(
    (0.01 + 0.1 * i, 0.1 + 0.1 * i) for i in range(10)
)

#: Serve stream shape: queries per round and key-pool sizes.  Design keys
#: follow a Zipf law with exponent 1: 10 keys asked 12, 6, 4, 3, 2, 2, 2,
#: 1, 1, 1 times, so 24 of a round's 34 design queries (and 27 of all 40)
#: re-ask a key the round already asked.
SERVE_ROUND_QUERIES = 40
SERVE_DESIGN_KEYS = 10
SERVE_ADMIT_KEYS = 3
SERVE_ADMIT_QUERIES = 6


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed that is a pure function of ``seed`` and ``labels``."""
    text = ":".join(str(part) for part in (seed, *labels))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _admit_query(rng: random.Random, num_cores: int, infeasible: bool) -> Dict[str, object]:
    """An explicit task set: Table-3-like RT and security tasks per core.

    An infeasible one carries more RT utilization per core than a core
    has, so its RT partition fails and the answer is ``feasible: false``.
    """
    per_core = rng.uniform(1.05, 1.2) if infeasible else rng.uniform(0.3, 0.6)
    num_rt = num_cores * rng.randint(3, 6)
    shares = [rng.random() + 0.05 for _ in range(num_rt)]
    scale = per_core * num_cores / sum(shares)
    rt_tasks = []
    for index, share in enumerate(shares):
        period = int(round(10 ** rng.uniform(1.0, 3.0)))
        wcet = max(1, min(period, int(round(share * scale * period))))
        rt_tasks.append({"name": f"rt{index}", "wcet": wcet, "period": period})
    security_tasks = []
    for index in range(num_cores * rng.randint(2, 3)):
        max_period = rng.randint(1500, 3000)
        wcet = max(1, int(round(0.1 * per_core * max_period)))
        security_tasks.append(
            {"name": f"sec{index}", "wcet": wcet, "max_period": max_period}
        )
    return {
        "op": "admit",
        "num_cores": num_cores,
        "rt_tasks": rt_tasks,
        "security_tasks": security_tasks,
    }


def _zipf_counts(keys: int, queries: int) -> List[int]:
    """How often each rank is asked: ``queries`` split in proportion to
    ``1/(rank+1)``, rounded by largest remainder."""
    weights = [1.0 / (rank + 1) for rank in range(keys)]
    shares = [queries * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(keys), key=lambda rank: counts[rank] - shares[rank])
    for rank in by_remainder[: queries - sum(counts)]:
        counts[rank] += 1
    return counts


def serve_round(seed: int, round_index: int) -> List[Dict[str, object]]:
    """One round of the closed-loop serve stream.

    The stream is a sequence of rounds, each with a fresh key pool drawn
    from the seed (the popular keys drift over time).  ``design`` keys are
    ranked by popularity; rank ``r`` is asked in proportion to ``1/(r+1)``
    (a Zipf law), one rank in three on 4 cores and the rest on 2 cores, one
    key per utilization group, the groups spread over the ranks so the
    popular keys are not all light or all heavy.  15% of the queries are
    explicit ``admit`` task sets, each key of a small pool asked equally
    often, one of them infeasible.  Every round asks each rank the same
    number of times (:func:`_zipf_counts`), so rounds differ only in their
    keys and their order, both drawn from the seed.
    """
    rng = random.Random(derive_seed(seed, "serve", round_index))
    design_keys = []
    for rank in range(SERVE_DESIGN_KEYS):
        group = (rank * 7) % len(UTILIZATION_GROUPS)
        design_keys.append(
            {
                "op": "design",
                "num_cores": 4 if rank % 3 == 2 else 2,
                "group_index": group,
                "normalized_range": list(UTILIZATION_GROUPS[group]),
                "seed": rng.getrandbits(31),
            }
        )
    admit_keys = [
        _admit_query(rng, 2 if rank % 2 == 0 else 4, infeasible=(rank == SERVE_ADMIT_KEYS - 1))
        for rank in range(SERVE_ADMIT_KEYS)
    ]
    counts = _zipf_counts(SERVE_DESIGN_KEYS, SERVE_ROUND_QUERIES - SERVE_ADMIT_QUERIES)
    queries = [key for key, count in zip(design_keys, counts) for _ in range(count)]
    queries += [admit_keys[index % SERVE_ADMIT_KEYS] for index in range(SERVE_ADMIT_QUERIES)]
    rng.shuffle(queries)
    return [dict(query) for query in queries]
