"""Versions: which (logical) SSTables exist at which level.

A :class:`FileMetaData` names a table by logical number *and* by physical
location ``(container, offset, length)``.  In stock LevelDB the container
is the table's own ``.ldb`` file at offset 0; in BoLT many logical
SSTables share one compaction file at different offsets (§3.2) — the
8-byte offset the paper adds to MANIFEST records is the ``offset`` field
here.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["FileMetaData", "KeyRangeIndex", "Version", "partition_by_overlap"]


@dataclass(eq=False)
class FileMetaData:
    """Metadata for one (logical) SSTable.

    Identity equality (``eq=False``): a table is one object shared by
    every :class:`Version` that references it, and hot paths
    (``overlapping_files``) do membership tests that must not pay a
    field-by-field dataclass compare per probe.
    """

    number: int
    container: str
    offset: int
    length: int
    smallest: bytes
    largest: bytes
    num_entries: int = 0
    #: Seek-compaction budget (runtime-only; LevelDB's allowed_seeks).
    allowed_seeks: int = 1 << 30

    def overlaps(self, smallest: Optional[bytes], largest: Optional[bytes]) -> bool:
        """Key-range overlap against ``[smallest, largest]`` (None = open)."""
        if smallest is not None and self.largest < smallest:
            return False
        if largest is not None and self.smallest > largest:
            return False
        return True


def key_range(files: Sequence[FileMetaData]) -> Tuple[bytes, bytes]:
    """Combined [smallest, largest] user-key range of ``files``."""
    smallest = min(f.smallest for f in files)
    largest = max(f.largest for f in files)
    return smallest, largest


class KeyRangeIndex:
    """Tables sorted by smallest key, answering range-overlap queries by
    bisection.

    ``reach[i]`` is the largest ``largest`` key among ``files[:i + 1]``:
    it never decreases, even when tables overlap (level 0, PebblesDB
    guards), so every table before ``bisect_left(reach, lo)`` ends below
    ``lo`` and every table from ``bisect_right(starts, hi)`` on starts
    above ``hi``.  On a disjoint level ``reach`` is exactly the
    largest-key array.  The sort is stable, so an input already sorted
    by smallest key keeps its order in every answer.
    """

    __slots__ = ("files", "starts", "reach")

    def __init__(self, files: Sequence[FileMetaData]):
        self.files: List[FileMetaData] = sorted(files, key=attrgetter("smallest"))
        self.starts: List[bytes] = [f.smallest for f in self.files]
        self.reach: List[bytes] = list(accumulate(
            (f.largest for f in self.files), max))

    def _window(self, smallest: Optional[bytes],
                largest: Optional[bytes]) -> Tuple[int, int]:
        start = 0 if smallest is None else bisect.bisect_left(
            self.reach, smallest)
        stop = len(self.files) if largest is None else bisect.bisect_right(
            self.starts, largest)
        return start, stop

    def overlapping(self, smallest: Optional[bytes],
                    largest: Optional[bytes]) -> List[FileMetaData]:
        """Tables overlapping ``[smallest, largest]`` (None = open), in
        index order."""
        start, stop = self._window(smallest, largest)
        window = self.files[start:stop]
        if smallest is None:
            return window
        return [f for f in window if f.largest >= smallest]

    def any_overlap(self, smallest: Optional[bytes],
                    largest: Optional[bytes]) -> bool:
        """True if any table overlaps ``[smallest, largest]``.

        A non-empty window suffices: the table whose ``largest`` set
        ``reach[start]`` sits at or before ``start``, so it ends at or
        after ``smallest`` and starts at or below ``starts[start]``,
        which is at most ``largest``.
        """
        start, stop = self._window(smallest, largest)
        return start < stop


def partition_by_overlap(tables: Sequence[FileMetaData],
                         others: Sequence[FileMetaData]
                         ) -> Tuple[List[FileMetaData], List[FileMetaData]]:
    """``(hit, clear)``: the ``tables`` that overlap some table of
    ``others``, and the rest, each in input order."""
    index = KeyRangeIndex(others)
    hit: List[FileMetaData] = []
    clear: List[FileMetaData] = []
    for meta in tables:
        (hit if index.any_overlap(meta.smallest, meta.largest)
         else clear).append(meta)
    return hit, clear


class Version:
    """An immutable snapshot of the table tree.

    Level 0 tables may overlap and are ordered newest-first for reads;
    levels >= 1 hold disjoint user-key ranges sorted by smallest key.
    """

    def __init__(self, num_levels: int):
        #: Mutated only through :meth:`add_file`/:meth:`remove_files`,
        #: which keep the caches below in step.
        self.files: List[List[FileMetaData]] = [[] for _ in range(num_levels)]
        #: Per-level lazy :class:`KeyRangeIndex` (levels >= 1), dropped
        #: whenever the level changes.  Indexes are immutable, so clones
        #: share them until their own level changes.
        self._index: List[Optional[KeyRangeIndex]] = [None] * num_levels
        #: Lazy count of distinct level-0 containers (BoLT flush units).
        self._l0_containers: Optional[int] = None
        #: Per-level byte totals, maintained incrementally — compaction
        #: scoring reads these on every write, so summing the level's
        #: file list each time is quadratic in practice.
        self._level_bytes: List[int] = [0] * num_levels
        #: Table numbers quarantined by the corruption path: still
        #: referenced (so recovery knows the bytes are suspect, not
        #: merely deleted) but excluded from reads, which fail fast with
        #: ``CorruptionError`` instead of decoding bad bytes.
        self.quarantined: Set[int] = set()
        #: Containers demoted to the remote object tier (tag 9):
        #: ``container name -> (object length, zlib.crc32)``.  A container
        #: listed here lives in the object store; its local file may be
        #: absent, and reads route through the LSST cache.
        self.remote_containers: Dict[str, Tuple[int, int]] = {}

    @property
    def num_levels(self) -> int:
        """Number of levels in this version."""
        return len(self.files)

    def clone(self) -> "Version":
        """An independent copy of this version's per-level file lists."""
        version = Version(self.num_levels)
        version.files = [list(level) for level in self.files]
        version._index = list(self._index)
        version._l0_containers = self._l0_containers
        version._level_bytes = list(self._level_bytes)
        version.quarantined = set(self.quarantined)
        version.remote_containers = dict(self.remote_containers)
        return version

    def is_remote(self, container: str) -> bool:
        """True if ``container`` has been demoted to the object tier."""
        return container in self.remote_containers

    def is_quarantined(self, number: int) -> bool:
        """True if table ``number`` is quarantined in this version."""
        return number in self.quarantined

    def num_files(self, level: int) -> int:
        """Number of tables at ``level``."""
        return len(self.files[level])

    def level_bytes(self, level: int) -> int:
        """Total table bytes at ``level``."""
        return self._level_bytes[level]

    def total_bytes(self) -> int:
        """Total table bytes across all levels."""
        return sum(self._level_bytes)

    def live_numbers(self) -> Dict[int, FileMetaData]:
        """Mapping ``table number -> metadata`` for every referenced table."""
        return {f.number: f for level in self.files for f in level}

    def deepest_nonempty_level(self) -> int:
        """The deepest level holding at least one table."""
        deepest = 0
        for level in range(self.num_levels):
            if self.files[level]:
                deepest = level
        return deepest

    # -- placement ---------------------------------------------------------

    def add_file(self, level: int, meta: FileMetaData) -> None:
        """Insert ``meta`` at ``level``, keeping the level sorted."""
        files = self.files[level]
        self._changed(level)
        self._level_bytes[level] += meta.length
        if level == 0:
            # Ordered by number; new tables almost always sort last.
            index = len(files)
            while index and files[index - 1].number > meta.number:
                index -= 1
            files.insert(index, meta)
        else:
            # Manual bisect on the smallest key: O(log n) compares
            # without materializing a key list per insert.
            lo, hi = 0, len(files)
            smallest = meta.smallest
            while lo < hi:
                mid = (lo + hi) // 2
                if files[mid].smallest < smallest:
                    lo = mid + 1
                else:
                    hi = mid
            files.insert(lo, meta)

    def remove_file(self, level: int, number: int) -> bool:
        """Remove table ``number`` from ``level``; True if it was present."""
        return self.remove_files(level, {number}) > 0

    def remove_files(self, level: int, numbers: Set[int]) -> int:
        """Remove every table in ``numbers`` from ``level`` in one pass;
        returns how many were present."""
        files = self.files[level]
        kept: List[FileMetaData] = []
        freed = 0
        for meta in files:
            if meta.number in numbers:
                freed += meta.length
            else:
                kept.append(meta)
        removed = len(files) - len(kept)
        if removed:
            files[:] = kept
            self._changed(level)
            self._level_bytes[level] -= freed
        return removed

    def _changed(self, level: int) -> None:
        """Drop the caches derived from ``files[level]``."""
        self._index[level] = None
        if level == 0:
            self._l0_containers = None

    def l0_container_count(self) -> int:
        """Number of distinct containers among the level-0 tables."""
        if self._l0_containers is None:
            self._l0_containers = len({meta.container
                                       for meta in self.files[0]})
        return self._l0_containers

    # -- lookups ------------------------------------------------------------

    def tables_for_key(self, level: int, user_key: bytes) -> List[FileMetaData]:
        """Tables that may hold ``user_key``, in probe order.

        Level 0 returns every overlapping table, newest first (§2.1:
        L0 tables overlap and must all be consulted); deeper levels
        return at most one table via binary search.
        """
        files = self.files[level]
        if level == 0:
            hits = [f for f in files if f.smallest <= user_key <= f.largest]
            hits.sort(key=lambda f: f.number, reverse=True)
            return hits
        # On the disjoint levels this serves, ``reach`` is the largest-key
        # array (PebblesDB's overlapping levels override the probe).
        index = bisect.bisect_left(self._level_index(level).reach, user_key)
        if index < len(files) and files[index].smallest <= user_key:
            return [files[index]]
        return []

    def _level_index(self, level: int) -> KeyRangeIndex:
        """The cached :class:`KeyRangeIndex` over ``files[level]``."""
        index = self._index[level]
        if index is None:
            index = self._index[level] = KeyRangeIndex(self.files[level])
        return index

    def overlapping_files(self, level: int, smallest: Optional[bytes],
                          largest: Optional[bytes]) -> List[FileMetaData]:
        """All tables at ``level`` overlapping the user-key range.

        For level 0 the range is expanded transitively, as LevelDB does:
        an overlapping L0 table may widen the range and pull in more L0
        tables.
        """
        files = self.files[level]
        if level == 0:
            result: List[FileMetaData] = []
            taken: set = set()  # ids, so probes never pay a field compare
            lo, hi = smallest, largest
            changed = True
            while changed:
                changed = False
                for meta in files:
                    if id(meta) in taken:
                        continue
                    if lo is not None and meta.largest < lo:
                        continue
                    if hi is not None and meta.smallest > hi:
                        continue
                    result.append(meta)
                    taken.add(id(meta))
                    if lo is None or meta.smallest < lo:
                        lo = meta.smallest
                        changed = True
                    if hi is None or meta.largest > hi:
                        hi = meta.largest
                        changed = True
            result.sort(key=lambda f: f.number)
            return result
        return self._level_index(level).overlapping(smallest, largest)

    def check_invariants(self) -> None:
        """Assert levels >= 1 are sorted and disjoint (test helper)."""
        for level in range(1, self.num_levels):
            files = self.files[level]
            for left, right in zip(files, files[1:]):
                if left.largest >= right.smallest:
                    raise AssertionError(
                        f"level {level} overlap: {left.number} and {right.number}")
