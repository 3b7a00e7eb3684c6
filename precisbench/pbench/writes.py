"""Writes that keep the data size constant.

Rows are inserted into MOVIE and CAST carrying catalog vocabulary (a
hot title phrase, a person name), so they change answers the reads
ask for. Every inserted row joins a fixed-size FIFO pool; the write
cycle is insert → update a pooled row in place → delete the oldest
pooled row, so the database never grows past the pool. With an empty
pool each cycle deletes the row it inserted: the data returns to what
it was, only the epochs move.
"""

from __future__ import annotations

import collections
import random
from typing import Callable

from repro.text import SynchronizedWriter

#: MIDs of inserted movies start above any generated one
FIRST_MID = 1_000_001
POOL_SIZE = 24
CYCLE = ("insert", "update", "delete")


class WriteMix:
    def __init__(self, db, index, phrases: list[str], names: list[str],
                 seed, pool_size: int = POOL_SIZE):
        self.db = db
        self.writer = SynchronizedWriter(db, index)
        self.phrases = phrases
        self.names = names
        self.rng = random.Random(seed)
        self.pool_size = pool_size
        self.pool: collections.deque = collections.deque()
        self.next_mid = FIRST_MID
        self.step = 0
        self.inserted = 0
        self.n_movies = len(db.relation("MOVIE"))
        self.n_actors = len(db.relation("ACTOR"))
        self.n_directors = len(db.relation("DIRECTOR"))

    def prefill(self) -> None:
        while len(self.pool) < self.pool_size:
            self._insert()

    def next_op(self) -> tuple[str, Callable[[], None]]:
        """The next write as (kind, thunk); the thunk performs it."""
        kind = CYCLE[self.step % len(CYCLE)]
        self.step += 1
        if kind == "insert":
            return kind, self._insert
        if kind == "update":
            return kind, self._update
        return kind, self._delete

    # ------------------------------------------------------------ writes

    def _insert(self) -> None:
        self.inserted += 1
        if self.inserted % 2:
            mid = self.next_mid
            self.next_mid += 1
            tid = self.writer.insert(
                "MOVIE",
                {
                    "MID": mid,
                    "TITLE": f"{self.rng.choice(self.phrases)} {mid}",
                    "YEAR": 1960 + mid % 46,
                    "DID": 1 + mid % self.n_directors,
                },
            )
            self.pool.append(("MOVIE", tid, mid))
            return
        cast = self.db.relation("CAST")
        while True:
            mid = self.rng.randint(1, self.n_movies)
            aid = self.rng.randint(1, self.n_actors)
            if cast.lookup_pk((mid, aid)) is None:
                break
        tid = self.writer.insert(
            "CAST",
            {"MID": mid, "AID": aid, "ROLE": self.rng.choice(self.names)},
        )
        self.pool.append(("CAST", tid, mid))

    def _update(self) -> None:
        relation, tid, mid = self.pool[self.rng.randrange(len(self.pool))]
        if relation == "MOVIE":
            changes = {"TITLE": f"{self.rng.choice(self.phrases)} {mid}"}
        else:
            changes = {"ROLE": self.rng.choice(self.names)}
        self.writer.update(relation, tid, changes)

    def _delete(self) -> None:
        relation, tid, __ = self.pool.popleft()
        self.writer.delete(relation, tid)
