"""What the benchmark sends: query catalog, tenants and request draws.

The catalog is drawn from the data's own vocabulary — person names,
two-word title phrases, genres and regions — so every query matches.
Its ranking is fixed (it does not depend on ``--seed``); the seed only
draws which requests are sent, in what order and at what times.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Optional

#: weight overlays of the two non-default tenants (schema-graph edge keys)
TENANTS: dict[Optional[str], Optional[dict]] = {
    None: None,
    "critics": {
        ("proj", "MOVIE", "TITLE"): 0.55,
        ("join", "MOVIE", "GENRE"): 0.2,
    },
    "venues": {
        ("join", "MOVIE", "PLAY"): 1.0,
        ("proj", "THEATRE", "REGION"): 1.0,
        ("join", "MOVIE", "CAST"): 0.3,
    },
}
TENANT_SHARES = (0.5, 0.25, 0.25)

PRIORITY_TIMEOUTS = {"interactive": 2.0, "batch": 5.0}
PRIORITY_SHARES = (0.7, 0.3)

#: fixed ranking seed: the catalog order never depends on --seed
RANKING_SEED = 20060403
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Request:
    text: str
    tenant: Optional[str] = None
    priority: str = "interactive"

    @property
    def weights(self) -> Optional[dict]:
        return TENANTS[self.tenant]

    @property
    def timeout_s(self) -> float:
        return PRIORITY_TIMEOUTS[self.priority]

    @property
    def key(self) -> tuple:
        """Requests with equal keys have equal answers."""
        return (self.text, self.tenant)


@dataclass(frozen=True)
class Catalog:
    #: every vocabulary query, in the fixed ranking order
    queries: list[str]
    #: the unquoted two-word title phrases and person names among them
    phrases: frozenset[str]
    names: frozenset[str]

    def vocabulary(self, queries: list[str]) -> tuple[list[str], list[str]]:
        """(title phrases, person names) among *queries*, in order."""
        bare = [text.strip('"') for text in queries]
        return (
            [text for text in bare if text in self.phrases],
            [text for text in bare if text in self.names],
        )


def build_catalog(db) -> Catalog:
    """The vocabulary queries of *db*."""

    def distinct(relation: str, attribute: str) -> set[str]:
        return {
            row.get(attribute)
            for row in db.relation(relation).scan([attribute])
            if row.get(attribute) is not None
        }

    names = distinct("DIRECTOR", "DNAME") | distinct("ACTOR", "ANAME")
    phrases = {
        " ".join(title.split()[:2]) for title in distinct("MOVIE", "TITLE")
    }
    queries = [f'"{text}"' for text in sorted(names | phrases)]
    queries += sorted(distinct("GENRE", "GENRE"))
    queries += sorted(distinct("THEATRE", "REGION"))
    random.Random(RANKING_SEED).shuffle(queries)
    return Catalog(queries, frozenset(phrases), frozenset(names))


class ZipfSampler:
    """Draws catalog ranks with probability ∝ 1 / (rank + 1)^s."""

    def __init__(self, size: int, exponent: float = ZIPF_EXPONENT):
        self.cumulative = list(
            itertools.accumulate(
                1.0 / (rank + 1) ** exponent for rank in range(size)
            )
        )

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self.cumulative[-1]
        return min(
            bisect.bisect_right(self.cumulative, point),
            len(self.cumulative) - 1,
        )


class RequestStream:
    """Seeded orders over a fixed pool of requests.

    The pool — *pool_size* draws from the Zipf ranking and the tenant
    and priority shares, made with a fixed seed — is the same for every
    ``--seed``. Each epoch sends the whole pool in a fresh seeded order.
    Runs of different seeds therefore send the same mix of work; the
    seed changes the order, and with it what the caches hold.
    """

    def __init__(
        self,
        catalog: list[str],
        seed,
        pool_size: int,
        priorities: bool = True,
    ):
        draw = random.Random(RANKING_SEED)
        zipf = ZipfSampler(len(catalog))
        priority_names = (
            list(PRIORITY_TIMEOUTS) if priorities else ["interactive"]
        )
        self.pool = [
            Request(
                catalog[zipf.draw(draw)],
                draw.choices(list(TENANTS), TENANT_SHARES)[0],
                draw.choices(priority_names,
                             PRIORITY_SHARES[: len(priority_names)])[0],
            )
            for _ in range(pool_size)
        ]
        self.rng = random.Random(seed)
        self.order: list[Request] = []

    def next(self) -> Request:
        if not self.order:
            self.order = list(self.pool)
            self.rng.shuffle(self.order)
        return self.order.pop()

    @property
    def epoch_done(self) -> bool:
        """True between epochs: everything drawn so far is whole pools."""
        return not self.order
