"""Exact-hit prediction cache for repeated feature vectors.

Production request streams are heavily repetitive — the same user, item,
or configuration row is scored again and again — so the serving stack
offers an opt-in :class:`PredictionCache` in front of the compiled
predictor.  The cache is deliberately conservative:

* **Exact hits only.**  A request hits the cache only when its *key*
  matches a cached entry exactly; there is no nearest-neighbour or
  tolerance matching, so a cached answer is always the answer the
  predictor itself would have produced.
* **Keys are quantized bin ids.**  With the training cut grid supplied
  (``cuts`` from :class:`~repro.data.dataset.BinnedDataset`), a row is
  keyed by the bytes of its uint8 bin-id vector — the same quantization
  the :class:`~repro.serve.compiler.QuantizedEnsemble` proves lossless:
  every split threshold of a histogram-trained model lies on the cut
  grid, so ``value <= threshold`` routes identically for every value in
  a bin and the raw score is a pure function of the bin ids.  Two
  float-distinct rows that bin identically therefore *must* score
  identically, and collapsing them into one cache entry is exact.
  Without cuts the key falls back to the canonicalized float64 bytes of
  the row (every ``NaN`` rewritten to the single canonical ``NaN``), so
  only bit-equal rows collide — still exact, just fewer hits.
* **Versioned.**  A cache serves exactly one model version at a time;
  the first lookup after a hot-swap invalidates the whole store, so a
  deploy can never leak stale scores (the scenario suite pins this).
* **Bounded.**  ``capacity`` entries, least-recently-used eviction, and
  a full hit/miss/insert/eviction/invalidation ledger in
  :class:`CacheStats` — the scenario reports surface the hit rate and
  the benches assert the exactness invariant.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .batcher import ScoreBook
from .compiler import bin_uint8, uint8_cuts


@dataclass
class CacheStats:
    """Running ledger of one :class:`PredictionCache`."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits, "misses": self.misses,
            "inserts": self.inserts, "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class PredictionCache:
    """LRU map from a request row's key to its score's position in the
    served version's :class:`~repro.serve.batcher.ScoreBook`.

    ``capacity`` bounds the number of cached rows; ``cuts`` (optional)
    enables quantized-bin-id keys — see the module docstring for why
    that is exact.  The cache itself never runs a model: :meth:`serve`
    appends the rows that miss to the book it is handed.
    """

    def __init__(self, capacity: int,
                 cuts: Optional[Sequence[np.ndarray]] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cuts = None if cuts is None else uint8_cuts(cuts)
        self._store: "OrderedDict[bytes, int]" = OrderedDict()
        self._version: Optional[int] = None
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        return (f"PredictionCache(capacity={self.capacity}, "
                f"entries={len(self)}, version={self._version}, "
                f"hit_rate={self.stats.hit_rate:.3f})")

    @property
    def version(self) -> Optional[int]:
        """Model version the cached entries belong to."""
        return self._version

    # -- keys --------------------------------------------------------------

    def key_batch(self, features: np.ndarray) -> List[bytes]:
        """One hashable key per row of a dense float64 batch.

        With cuts: the bytes of the row's uint8 bin-id vector (``NaN``
        quantizes to the missing sentinel, columns beyond the cut grid
        are all-sentinel).  Without cuts: the row's float64 bytes with
        every ``NaN`` canonicalized, so bit-equal rows — and only those
        — share a key.
        """
        if features.ndim != 2:
            raise ValueError("cache keys need a 2-D dense batch")
        if self.cuts is not None:
            return [row.tobytes() for row in bin_uint8(features, self.cuts)]
        canonical = np.ascontiguousarray(features, dtype=np.float64)
        nan_mask = np.isnan(canonical)
        if nan_mask.any():
            canonical = canonical.copy()
            canonical[nan_mask] = np.nan
        return [row.tobytes() for row in canonical]

    # -- the serve path ----------------------------------------------------

    def serve(self, version: int, features: np.ndarray,
              book: ScoreBook) -> Tuple[np.ndarray, int]:
        """Book positions for a batch, answering repeats from the cache.

        Returns ``(positions, misses)``: one position in ``book`` (the
        score book of ``version``) per input row — a hit row's from the
        store, a miss row's from appending exactly the missing subset to
        the book, after which it is inserted — and how many rows missed,
        what a deterministic service model should bill for.

        The first call after a version change invalidates the store, so
        entries never cross a hot-swap.
        """
        if version != self._version:
            self.invalidate()
            self._version = version
        keys = self.key_batch(features)
        positions = np.empty(len(keys), dtype=np.int64)
        miss_idx: List[int] = []
        for idx, key in enumerate(keys):
            cached = self._store.get(key)
            if cached is None:
                miss_idx.append(idx)
            else:
                self._store.move_to_end(key)
                positions[idx] = cached
        self.stats.hits += len(keys) - len(miss_idx)
        self.stats.misses += len(miss_idx)
        if miss_idx:
            booked = book.append(
                features[np.asarray(miss_idx, dtype=np.int64)])
            for idx, position in zip(miss_idx, booked.tolist()):
                positions[idx] = position
                self._insert(keys[idx], position)
        return positions, len(miss_idx)

    def _insert(self, key: bytes, position: int) -> None:
        if key in self._store:
            # a duplicate miss inside one batch: same key, same score —
            # refresh recency, nothing new to store
            self._store.move_to_end(key)
            return
        self._store[key] = position
        self.stats.inserts += 1
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (counted once per non-empty flush)."""
        if self._store:
            self.stats.invalidations += 1
            self._store.clear()

    def on_version_change(self, version: Optional[int]) -> None:
        """Eager invalidation hook for registry activation changes.

        :meth:`ModelRegistry.attach_cache
        <repro.serve.registry.ModelRegistry.attach_cache>` calls this on
        every active-pointer flip — hot-swap, promote, *and* rollback —
        so entries scored by an abandoned version are flushed at the
        decision instant.  The lazy check in :meth:`serve` still guards
        caches that were never attached.
        """
        if version != self._version:
            self.invalidate()
            self._version = version
