"""Seeded inputs: a discretized C1 market, read requests, and their answers.

The market is the program's own synthetic, sector-structured panel,
discretized into k = 3 buckets (configuration C1).  ``scale`` selects
the number of series: 0.25 -> 23, 0.5 -> 47, 1.0 -> 92 attributes.
Answers are compared as plain JSON values: a float survives the JSON
round trip exactly, so equal answers are bit-identical.
"""

from __future__ import annotations

import json
import random
from typing import Any

#: Cache hits (similarity, neighbors after the warm-up) are three
#: quarters of the reads, so the median sits inside their mode rather than
#: on the edge to the slower classify misses and delayed-ACK stalls.
READ_MIX = {
    "similarity": 0.60,
    "neighbors": 0.15,
    "classify": 0.21,
    "clusters": 0.02,
    "dominators": 0.02,
}
POINT_READ_MIX = {"similarity": 0.5, "classify": 0.5}
#: serve_ingest's gated reads.  On its small tenant an uncached similarity
#: (~3 ms in the service) is slower than a classify (~0.4 ms), and with
#: half of each the median sat on the edge between the two; with three
#: quarters classify it sits inside the classify mode.
INGEST_READ_MIX = {"similarity": 0.25, "classify": 0.75}
NEIGHBOR_LIMIT = 5


class Market:
    """One seeded C1 market: discretized rows split into seed and extra days."""

    def __init__(self, scale: float, seed_rows: int, extra_rows: int, seed: int) -> None:
        from repro.data.market import MarketConfig, SyntheticMarket, default_sectors

        self.seed_rows = seed_rows
        self.extra_rows = extra_rows
        self.market = SyntheticMarket(
            MarketConfig(
                num_days=seed_rows + extra_rows + 1,
                sectors=default_sectors(scale),
                seed=seed,
            )
        )
        self.panel = None

    def generate(self) -> None:
        self.panel = self.market.generate()

    def discretize(self) -> None:
        from repro.data.discretization import discretize_panel

        self.database = discretize_panel(self.panel, k=3)
        self.attributes = list(self.database.attributes)
        self.values = sorted(self.database.values)
        self.rows = self.database.to_rows()

    def seed_database(self):
        return self.database.slice_rows(0, self.seed_rows)

    def extra_database(self):
        return self.database.slice_rows(self.seed_rows)


class Requests:
    """Seeded read payloads over one market's attributes."""

    def __init__(self, dataset_id: str, attributes: list[str], values: list[Any]) -> None:
        self.dataset_id = dataset_id
        self.attributes = attributes
        self.values = values

    def path(self, op: str) -> str:
        return f"/v1/tenants/{self.dataset_id}/query/{op}"

    def body(self, op: str, rng: random.Random) -> dict:
        if op == "similarity":
            first, second = rng.sample(self.attributes, 2)
            return {"first": first, "second": second}
        if op == "neighbors":
            return {"attribute": rng.choice(self.attributes), "limit": NEIGHBOR_LIMIT}
        if op == "classify":
            evidence, target = rng.sample(self.attributes, 2)
            return {"evidence": {evidence: rng.choice(self.values)}, "targets": [target]}
        if op == "clusters":
            return {}
        if op == "dominators":
            return {"algorithm": "set-cover"}
        raise ValueError(f"unknown read operation {op!r}")

    def request(self, op: str, rng: random.Random) -> tuple[str, str, dict]:
        return "POST", self.path(op), self.body(op, rng)


def _plain(value: Any) -> Any:
    return json.loads(json.dumps(value))


def served_answer(op: str, body: dict) -> Any:
    """The answer part of a service response, without version fields."""
    if op == "similarity":
        return _plain(body["similarity"])
    if op == "neighbors":
        return _plain([[n["attribute"], n["similarity"]] for n in body["neighbors"]])
    if op == "classify":
        return _plain({
            target: [p["value"], p["confidence"], p["abstained"], p["votes"]]
            for target, p in body["predictions"].items()
        })
    if op == "clusters":
        return _plain([body["centers"], body["clusters"]])
    if op == "dominators":
        return _plain([body["dominators"], body["covered"], body["uncovered"],
                       body["coverage"]])
    raise ValueError(op)


def engine_answer(engine, op: str, body: dict) -> Any:
    """The same answer computed by an in-process engine."""
    if op == "similarity":
        return _plain(engine.similarity(body["first"], body["second"]))
    if op == "neighbors":
        scored = engine.neighbors(body["attribute"], limit=body.get("limit"))
        return _plain([[other, sim] for other, sim in scored])
    if op == "classify":
        predictions = engine.classify(body["evidence"], targets=body["targets"])
        return _plain({
            str(target): [p.value, p.confidence, p.is_abstention,
                          {str(v): vote for v, vote in p.votes.items()}]
            for target, p in predictions.items()
        })
    if op == "clusters":
        clustering = engine.clusters()
        return _plain([
            [str(c) for c in clustering.centers],
            {str(c): [str(m) for m in members]
             for c, members in clustering.clusters.items()},
        ])
    if op == "dominators":
        result = engine.dominators(algorithm=body.get("algorithm", "set-cover"))
        return _plain([
            [str(v) for v in result.dominators],
            sorted(str(v) for v in result.covered),
            sorted(str(v) for v in result.uncovered),
            result.coverage,
        ])
    raise ValueError(op)
