"""Router-side writes: lock-free readers beside them, O(touched) bookkeeping.

The router's tables are written by one mutation thread while serving
threads read them without a lock.  The q-gram tier keeps that safe with
replaced-never-edited posting arrays and capacity-doubled per-row columns;
``LabelHashTable`` and ``LabelRows`` find an entity's entries through
reverse maps, which must follow every add, drop and re-add exactly.
"""

import sys
import threading

from repro.lookup import LabelHashTable, LookupRouter
from repro.lookup.qgram import QGramLookup
from repro.lookup.rows import LabelRows


def keys_by_entity(table: LabelHashTable) -> dict[str, list[str]]:
    """The reverse map ``_keys_of`` must equal, rebuilt from the entries."""
    out: dict[str, list[str]] = {}
    for key, ids in table._entries.items():
        for entity_id in ids:
            out.setdefault(entity_id, []).append(key)
    return out


def rows_by_entity(rows: LabelRows) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for row, entity_id in enumerate(rows.entity_ids):
        if entity_id is not None:
            out.setdefault(entity_id, []).append(row)
    return out


def sorted_values(mapping: dict) -> dict:
    return {key: sorted(value) for key, value in mapping.items()}


class TestLockFreeFuzzyReaders:
    def test_reader_survives_column_doublings_and_never_sees_a_dropped_entity(self):
        router = LookupRouter(
            LabelHashTable(), fuzzy=QGramLookup(include_aliases=True)
        )
        fuzzy = router.fuzzy
        for i in range(32):
            router.add_entity(f"seed{i}", [f"label {i}", "alias zero"])
        start_capacity = len(fuzzy._columns[1])
        dropped: list[str] = []  # appended only after drop_entity returned
        done = threading.Event()
        errors: list[BaseException] = []
        lookups = 0

        def reader():
            nonlocal lookups
            queries = ["lab", "label 1", "alias", "el 2", "", "zzz"]
            try:
                while not done.is_set():
                    gone = set(dropped)
                    for answer in fuzzy.lookup_batch(queries, 10):
                        for candidate in answer:
                            assert type(candidate.entity_id) is str
                            assert candidate.entity_id not in gone
                    lookups += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=reader, name="fuzzy-reader")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            for i in range(1, 2 * start_capacity):
                router.add_entity(f"e{i}", [f"label {i}", f"alias {i % 7}"])
                if i % 3 == 0:
                    router.remove_entity(f"e{i - 2}")
                    dropped.append(f"e{i - 2}")
            while lookups < 3 and thread.is_alive():
                done.wait(0.01)
        finally:
            done.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not errors, errors[0]
        assert lookups >= 3
        assert len(fuzzy._columns[1]) >= 4 * start_capacity  # two doublings
        survivors = {c.entity_id for c in fuzzy.lookup("label", 10_000)}
        assert survivors and survivors.isdisjoint(dropped)


class TestReverseMaps:
    MENTIONS = ("Shared Name", "shared name ", "Other", "")

    def test_add_drop_readd_keeps_both_reverse_maps_exact(self):
        table, fuzzy = LabelHashTable(), QGramLookup(include_aliases=True)
        router = LookupRouter(table, fuzzy=fuzzy)
        router.add_entity("a", ["Shared Name", "Only A"])
        router.add_entity("b", ["shared name", "Only B"])

        def check():
            assert sorted_values(table._keys_of) == sorted_values(
                keys_by_entity(table)
            )
            assert fuzzy.rows._rows_of == rows_by_entity(fuzzy.rows)

        check()
        router.remove_entity("a")
        check()
        assert "a" not in table._keys_of and "a" not in fuzzy.rows._rows_of
        assert table.get("shared name") == ("b",)
        router.add_entity("a", ["Shared Name", "Renamed A"])  # the update
        check()
        assert table.get("shared name") == ("b", "a")
        assert table.get("only a") == ()
        assert [c.entity_id for c in fuzzy.lookup("renamed a", 1)] == ["a"]
        # The rows of the old "Only A" stay in the postings, masked.
        assert all(c.score < 1.0 for c in fuzzy.lookup("only a", 5))
        router.remove_entity("b")
        check()
        assert table.get("shared name") == ("a",)

    def test_table_bytes_return_to_their_pre_add_value(self):
        table = LabelHashTable()
        table.add("Resident", "r")
        before = table.index_bytes(), len(table), dict(table._entries)
        for mention in self.MENTIONS:
            table.add(mention, "x")
        assert table.index_bytes() > before[0]
        assert table.drop_entity("x") == 2  # duplicates and "" were not stored
        assert (table.index_bytes(), len(table), table._entries) == before
        assert table._keys_of == {"r": ["resident"]}

    def test_dropping_an_unknown_entity_changes_nothing(self):
        table, fuzzy = LabelHashTable(), QGramLookup()
        table.add("Resident", "r")
        fuzzy.add("Resident", "r")
        state = (
            dict(table._entries), table.index_bytes(),
            list(fuzzy.rows.entity_ids), fuzzy._columns[1].copy(),
        )
        assert table.drop_entity("nobody") == 0
        assert fuzzy.drop_entity("nobody") == 0
        assert fuzzy.rows.drop_entity("nobody") == []
        assert (dict(table._entries), table.index_bytes()) == state[:2]
        assert fuzzy.rows.entity_ids == state[2]
        assert (fuzzy._columns[1] == state[3]).all()
        assert [c.entity_id for c in fuzzy.lookup("resident", 1)] == ["r"]


class TestQGramSizes:
    def test_index_bytes_is_four_per_posting_entry_plus_the_columns(self, tiny_kg):
        service = QGramLookup.build(tiny_kg, include_aliases=True)
        entries = sum(len(rows) for rows in service._postings.values())
        keys = sum(len(gram.encode()) for gram in service._postings)
        capacity = len(service._columns[1])
        assert capacity >= len(service.rows)
        assert service.index_bytes() == keys + 4 * entries + (4 + 1) * capacity
        # A drop rewrites nothing: dead rows stay in the postings, masked.
        service.drop_entity(next(iter(tiny_kg.entities())).entity_id)
        assert service.index_bytes() == keys + 4 * entries + (4 + 1) * capacity
