"""Unit tests for Version bookkeeping and MANIFEST machinery."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BoLTMixin
from repro.lsm import (Compaction, FileMetaData, Options, Version, VersionEdit,
                       VersionSet)
from repro.lsm.version import KeyRangeIndex, partition_by_overlap


def meta(number, smallest, largest, length=1000, container=None, offset=0):
    return FileMetaData(number=number, container=container or f"{number}.ldb",
                        offset=offset, length=length,
                        smallest=smallest, largest=largest)


class TestFileMetaData:
    def test_overlap_cases(self):
        m = meta(1, b"d", b"m")
        assert m.overlaps(b"a", b"e")
        assert m.overlaps(b"f", b"g")
        assert m.overlaps(b"m", b"z")
        assert not m.overlaps(b"a", b"c")
        assert not m.overlaps(b"n", b"z")

    def test_open_ranges(self):
        m = meta(1, b"d", b"m")
        assert m.overlaps(None, b"e")
        assert m.overlaps(b"e", None)
        assert m.overlaps(None, None)
        assert not m.overlaps(None, b"c")
        assert not m.overlaps(b"n", None)


class TestVersion:
    def test_level0_keeps_insertion_by_number(self):
        v = Version(3)
        v.add_file(0, meta(5, b"a", b"z"))
        v.add_file(0, meta(3, b"a", b"z"))
        assert [f.number for f in v.files[0]] == [3, 5]

    def test_deeper_levels_sorted_by_smallest(self):
        v = Version(3)
        v.add_file(1, meta(1, b"m", b"p"))
        v.add_file(1, meta(2, b"a", b"c"))
        v.add_file(1, meta(3, b"e", b"g"))
        assert [f.smallest for f in v.files[1]] == [b"a", b"e", b"m"]

    def test_tables_for_key_level0_newest_first(self):
        v = Version(3)
        v.add_file(0, meta(1, b"a", b"m"))
        v.add_file(0, meta(2, b"c", b"z"))
        v.add_file(0, meta(3, b"x", b"z"))
        hits = v.tables_for_key(0, b"d")
        assert [f.number for f in hits] == [2, 1]

    def test_tables_for_key_binary_search(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        v.add_file(1, meta(2, b"e", b"g"))
        v.add_file(1, meta(3, b"i", b"k"))
        assert [f.number for f in v.tables_for_key(1, b"f")] == [2]
        assert v.tables_for_key(1, b"d") == []
        assert v.tables_for_key(1, b"z") == []

    def test_overlapping_files_simple(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        v.add_file(1, meta(2, b"e", b"g"))
        v.add_file(1, meta(3, b"i", b"k"))
        hits = v.overlapping_files(1, b"b", b"f")
        assert [f.number for f in hits] == [1, 2]

    def test_level0_transitive_expansion(self):
        """§2.1: one L0 table can transitively pull in all the others."""
        v = Version(3)
        v.add_file(0, meta(1, b"a", b"e"))
        v.add_file(0, meta(2, b"d", b"j"))
        v.add_file(0, meta(3, b"i", b"p"))
        v.add_file(0, meta(4, b"x", b"z"))
        hits = v.overlapping_files(0, b"a", b"b")
        assert sorted(f.number for f in hits) == [1, 2, 3]

    def test_remove_file(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        assert v.remove_file(1, 1)
        assert not v.remove_file(1, 1)
        assert v.files[1] == []

    def test_byte_and_count_accounting(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c", length=100))
        v.add_file(1, meta(2, b"e", b"g", length=250))
        assert v.level_bytes(1) == 350
        assert v.num_files(1) == 2
        assert v.total_bytes() == 350
        assert v.deepest_nonempty_level() == 1

    def test_invariant_checker_catches_overlap(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"f"))
        v.add_file(1, meta(2, b"d", b"k"))
        with pytest.raises(AssertionError):
            v.check_invariants()

    def test_clone_is_independent(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        clone = v.clone()
        clone.remove_file(1, 1)
        assert v.num_files(1) == 1
        assert clone.num_files(1) == 0


def _key(i):
    return b"k%03d" % i


def _brute(files, lo, hi):
    """The linear overlap scan the index replaced (reference)."""
    return [f for f in files if f.overlaps(lo, hi)]


#: A key-range bound: a key, or None for an open end.
_bound = st.one_of(st.none(), st.integers(0, 60).map(_key))


@st.composite
def _disjoint_tables(draw, first_number=1):
    """A level-shaped run: sorted, pairwise-disjoint key ranges."""
    cuts = sorted(draw(st.sets(st.integers(0, 60), max_size=24)))
    tables, number = [], first_number
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        tables.append(meta(number, _key(lo), _key(hi),
                           length=draw(st.integers(1, 5000))))
        number += 1
    return tables


@st.composite
def _overlapping_tables(draw, first_number=1):
    """PebblesDB-shaped: arbitrary (possibly nested) key ranges."""
    spans = draw(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)),
                          max_size=16))
    return [meta(first_number + i, _key(min(a, b)), _key(max(a, b)),
                 length=1000 + i, container=f"c{i % 3}.cf")
            for i, (a, b) in enumerate(spans)]


def _tables():
    return st.one_of(_disjoint_tables(), _overlapping_tables())


class TestKeyRangeIndex:
    @settings(max_examples=150, deadline=None)
    @given(_tables(), st.randoms(use_true_random=False), _bound, _bound)
    def test_matches_linear_scan(self, tables, rnd, lo, hi):
        shuffled = list(tables)
        rnd.shuffle(shuffled)
        index = KeyRangeIndex(shuffled)
        ordered = sorted(shuffled, key=lambda f: f.smallest)  # stable
        expected = _brute(ordered, lo, hi)
        assert index.overlapping(lo, hi) == expected
        assert index.any_overlap(lo, hi) == bool(expected)

    @settings(max_examples=150, deadline=None)
    @given(_tables(), _bound, _bound)
    def test_version_overlapping_files_matches_linear_scan(self, tables,
                                                           lo, hi):
        v = Version(3)
        for f in tables:
            v.add_file(1, f)
        assert v.overlapping_files(1, lo, hi) == _brute(v.files[1], lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(_disjoint_tables(), st.integers(0, 60).map(_key))
    def test_tables_for_key_matches_linear_scan(self, tables, key):
        v = Version(3)
        for f in tables:
            v.add_file(1, f)
        assert v.tables_for_key(1, key) == [
            f for f in v.files[1] if f.smallest <= key <= f.largest]

    def test_empty_index(self):
        index = KeyRangeIndex([])
        assert index.overlapping(None, None) == []
        assert not index.any_overlap(b"a", b"z")


class TestOverlapPartitions:
    """The compaction-time overlap splits against the pairwise formula."""

    @settings(max_examples=150, deadline=None)
    @given(_tables(), _disjoint_tables(first_number=100))
    def test_merge_overlap_partition(self, victims, overlaps):
        hit, clear = partition_by_overlap(overlaps, victims)
        assert hit == [o for o in overlaps
                       if any(o.overlaps(v.smallest, v.largest)
                              for v in victims)]
        assert clear == [o for o in overlaps if o not in hit]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2), _tables(), _disjoint_tables(first_number=100))
    def test_bolt_split_settled(self, level, victims, overlaps):
        engine = SimpleNamespace(
            options=SimpleNamespace(enable_settled_compaction=True))
        if level > 0:
            victims = sorted(victims, key=lambda f: f.smallest)
        compaction = Compaction(level, victims, overlaps, False)
        settled, merge = BoLTMixin._split_settled(engine, compaction)
        expected_merge = []
        for victim in victims:
            blocked = any(victim.overlaps(o.smallest, o.largest)
                          for o in overlaps)
            if not blocked and level == 0:
                blocked = any(victim.overlaps(other.smallest, other.largest)
                              for other in victims if other is not victim)
            if blocked:
                expected_merge.append(victim)
        assert merge == expected_merge
        assert settled == [v for v in victims if v not in expected_merge]


class TestVersionCaches:
    """Cached indexes and counts stay in step with ``files``."""

    @settings(max_examples=100, deadline=None)
    @given(_tables(), st.data())
    def test_remove_files_matches_sequential_remove_file(self, tables, data):
        one, batch = Version(3), Version(3)
        for f in tables:
            one.add_file(1, f)
            batch.add_file(1, f)
        # Warm the caches so removal must invalidate them.
        batch.overlapping_files(1, None, None)
        numbers = data.draw(st.sets(st.integers(0, 30)))
        for number in sorted(numbers):
            one.remove_file(1, number)
        removed = batch.remove_files(1, numbers)
        assert removed == len(tables) - len(batch.files[1])
        assert batch.files[1] == one.files[1]
        assert batch.level_bytes(1) == one.level_bytes(1)
        assert batch.level_bytes(1) == sum(f.length for f in batch.files[1])
        for i in range(0, 61, 3):
            key = _key(i)
            assert (batch.overlapping_files(1, key, _key(i + 9))
                    == one.overlapping_files(1, key, _key(i + 9))
                    == _brute(batch.files[1], key, _key(i + 9)))
            assert batch.tables_for_key(1, key) == one.tables_for_key(1, key)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["add", "remove", "remove_many",
                                               "clone"]),
                              st.integers(1, 12), st.integers(0, 3)),
                    max_size=30))
    def test_l0_container_count_tracks_files(self, ops):
        v = Version(3)
        v.l0_container_count()
        older = []
        for op, number, container in ops:
            if op == "add" and all(f.number != number for f in v.files[0]):
                v.add_file(0, meta(number, b"a", b"z",
                                   container=f"{container}.cf"))
            elif op == "remove":
                v.remove_file(0, number)
            elif op == "remove_many":
                v.remove_files(0, {number, number + 1})
            elif op == "clone":
                older.append((v, [f.container for f in v.files[0]]))
                v = v.clone()
            assert v.l0_container_count() == len(
                {f.container for f in v.files[0]})
            assert [f.number for f in v.files[0]] == sorted(
                f.number for f in v.files[0])
        # A clone shares cached state, never later changes.
        for version, containers in older:
            assert [f.container for f in version.files[0]] == containers
            assert version.l0_container_count() == len(set(containers))

    def test_clone_keeps_index_independent(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        v.add_file(1, meta(2, b"e", b"g"))
        assert [f.number for f in v.overlapping_files(1, None, None)] == [1, 2]
        clone = v.clone()
        clone.remove_file(1, 1)
        clone.add_file(1, meta(3, b"x", b"z"))
        assert [f.number for f in v.overlapping_files(1, None, None)] == [1, 2]
        assert [f.number for f in clone.overlapping_files(1, None, None)] == [2, 3]
        assert v.tables_for_key(1, b"y") == []
        assert [f.number for f in clone.tables_for_key(1, b"y")] == [3]


class TestVersionEdit:
    def test_roundtrip_full(self):
        edit = VersionEdit()
        edit.log_number = 7
        edit.next_file_number = 42
        edit.last_sequence = 12345
        edit.set_compact_pointer(2, b"pointer-key")
        edit.delete_file(1, 9)
        edit.add_file(2, meta(10, b"aa", b"zz", length=555,
                              container="c.cf", offset=4096))
        edit.add_guard(3, b"guard-key")
        decoded = VersionEdit.decode(edit.encode())
        assert decoded.log_number == 7
        assert decoded.next_file_number == 42
        assert decoded.last_sequence == 12345
        assert decoded.compact_pointers == [(2, b"pointer-key")]
        assert decoded.deleted_files == [(1, 9)]
        level, m = decoded.new_files[0]
        assert level == 2 and m.number == 10
        assert m.container == "c.cf" and m.offset == 4096 and m.length == 555
        assert m.smallest == b"aa" and m.largest == b"zz"
        assert decoded.new_guards == [(3, b"guard-key")]

    def test_empty_edit(self):
        decoded = VersionEdit.decode(VersionEdit().encode())
        assert decoded.new_files == [] and decoded.deleted_files == []

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 10 ** 6),
                              st.binary(min_size=1, max_size=8),
                              st.binary(min_size=1, max_size=8)),
                    max_size=20))
    def test_new_files_roundtrip_property(self, files):
        edit = VersionEdit()
        for level, number, k1, k2 in files:
            lo, hi = min(k1, k2), max(k1, k2)
            edit.add_file(level, meta(number, lo, hi))
        decoded = VersionEdit.decode(edit.encode())
        assert len(decoded.new_files) == len(files)
        for (level, number, k1, k2), (dl, dm) in zip(files, decoded.new_files):
            assert dl == level and dm.number == number


class TestVersionSet:
    def _vs(self, env, fs, run):
        options = Options()
        vs = VersionSet(env, fs, options, "db")
        run(vs.create_new())
        return vs

    def test_create_writes_current_and_manifest(self, env, fs, run):
        self._vs(env, fs, run)
        assert fs.exists("db/CURRENT")
        assert fs.exists("db/MANIFEST-000001")

    def test_log_and_apply_fsyncs_manifest(self, env, fs, run):
        vs = self._vs(env, fs, run)
        barriers = fs.stats.num_barrier_calls
        edit = VersionEdit()
        edit.add_file(0, meta(10, b"a", b"z"))
        run(vs.log_and_apply(edit))
        assert fs.stats.num_barrier_calls == barriers + 1
        assert vs.current.num_files(0) == 1

    def test_recover_rebuilds_state(self, env, fs, run):
        vs = self._vs(env, fs, run)
        edit = VersionEdit()
        edit.add_file(1, meta(10, b"a", b"m", length=123))
        edit.add_file(1, meta(11, b"n", b"z", length=456))
        run(vs.log_and_apply(edit))
        edit2 = VersionEdit()
        edit2.delete_file(1, 10)
        vs.last_sequence = 999
        run(vs.log_and_apply(edit2))

        vs2 = VersionSet(env, fs, Options(), "db")
        run(vs2.recover())
        assert [f.number for f in vs2.current.files[1]] == [11]
        assert vs2.last_sequence == 999
        assert vs2.next_file_number >= 12

    def test_recover_rolls_manifest(self, env, fs, run):
        vs = self._vs(env, fs, run)
        old_manifest = f"db/MANIFEST-{vs.manifest_file_number:06d}"
        vs2 = VersionSet(env, fs, Options(), "db")
        run(vs2.recover())
        assert vs2.manifest_file_number != vs.manifest_file_number
        assert not fs.exists(old_manifest)
        assert fs.exists(f"db/MANIFEST-{vs2.manifest_file_number:06d}")

    def test_unsynced_edit_lost_after_crash(self, env, fs, run):
        """The MANIFEST is the commit mark: an edit whose fsync never
        completed must vanish on recovery (§2.4)."""
        vs = self._vs(env, fs, run)
        edit = VersionEdit()
        edit.add_file(0, meta(10, b"a", b"z"))
        # Append the record without the barrier (simulate pre-fsync crash).
        edit.next_file_number = vs.next_file_number
        edit.last_sequence = vs.last_sequence
        edit.log_number = vs.log_number
        vs._manifest_writer.append(edit.encode())
        fs.crash(survive_probability=0.0)
        vs2 = VersionSet(env, fs, Options(), "db")
        run(vs2.recover())
        assert vs2.current.num_files(0) == 0

    def test_synced_edit_survives_crash(self, env, fs, run):
        vs = self._vs(env, fs, run)
        edit = VersionEdit()
        edit.add_file(0, meta(10, b"a", b"z"))
        run(vs.log_and_apply(edit))
        fs.crash(survive_probability=0.0)
        vs2 = VersionSet(env, fs, Options(), "db")
        run(vs2.recover())
        assert vs2.current.num_files(0) == 1

    def test_level_scores(self, env, fs, run):
        vs = self._vs(env, fs, run)
        for i in range(8):
            edit = VersionEdit()
            edit.add_file(0, meta(100 + i, b"a", b"z"))
            run(vs.log_and_apply(edit))
        assert vs.level_score(0) == pytest.approx(
            8 / vs.options.l0_compaction_trigger)
        level, score = vs.pick_compaction_level()
        assert level == 0 and score > 1.0

    def test_l0_unit_count_by_container(self, env, fs, run):
        options = Options(use_compaction_file=True)
        vs = VersionSet(env, fs, options, "db")
        run(vs.create_new())
        edit = VersionEdit()
        for i in range(6):
            edit.add_file(0, meta(10 + i, b"a", b"z",
                                  container="db/000009.cf", offset=i * 100))
        run(vs.log_and_apply(edit))
        assert vs.current.num_files(0) == 6
        assert vs.l0_unit_count() == 1  # one flush container

    def test_file_numbers_monotonic(self, env, fs, run):
        vs = self._vs(env, fs, run)
        numbers = [vs.new_file_number() for _ in range(5)]
        assert numbers == sorted(numbers)
        assert len(set(numbers)) == 5
