"""Slotted page format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionError, DuplicateKeyError
from repro.common.units import DB_PAGE_SIZE
from repro.db.page import Page, PageType
from repro.storage.redo import RedoRecord, apply_records


def test_new_page_round_trips_through_bytes():
    page = Page.new(7, PageType.LEAF)
    parsed = Page.parse(page.to_bytes())
    assert parsed.page_no == 7
    assert parsed.page_type is PageType.LEAF
    assert parsed.n_slots == 0


def test_parse_rejects_bad_input():
    with pytest.raises(CorruptionError):
        Page.parse(b"short")
    with pytest.raises(CorruptionError):
        Page.parse(bytes(DB_PAGE_SIZE))  # zero magic


def test_insert_get():
    page = Page.new(1, PageType.LEAF)
    assert page.insert(10, b"ten", lsn=1)
    assert page.insert(5, b"five", lsn=2)
    assert page.insert(20, b"twenty", lsn=3)
    assert page.get(10) == b"ten"
    assert page.get(5) == b"five"
    assert page.get(20) == b"twenty"
    assert page.get(15) is None
    assert page.keys() == [5, 10, 20]  # kept sorted
    assert page.min_key() == 5


def test_insert_duplicate_key_rejected():
    page = Page.new(1, PageType.LEAF)
    page.insert(1, b"a", 1)
    # A key-existence error, distinct from real corruption.
    with pytest.raises(DuplicateKeyError):
        page.insert(1, b"b", 2)


def test_insert_until_full_returns_false():
    page = Page.new(1, PageType.LEAF)
    key = 0
    while page.insert(key, b"v" * 100, key + 1):
        key += 1
    assert key > 100  # a 16 KiB page holds >100 such records
    assert not page.fits(100)


def test_update_in_place_and_grow():
    page = Page.new(1, PageType.LEAF)
    page.insert(1, b"original--", 1)
    assert page.update(1, b"short", 2)  # shrinking update, in place
    assert page.get(1) == b"short"
    assert page.update(1, b"a much longer value than before", 3)
    assert page.get(1) == b"a much longer value than before"
    assert not page.update(99, b"x", 4)  # missing key


def test_delete_and_reinsert():
    page = Page.new(1, PageType.LEAF)
    page.insert(3, b"x", 1)
    page.insert(1, b"y", 2)
    assert page.delete(3, 3)
    assert page.get(3) is None
    assert page.keys() == [1]
    assert not page.delete(3, 4)  # already gone
    # Reinsert revives the tombstone slot.
    assert page.insert(3, b"z", 5)
    assert page.get(3) == b"z"


def test_page_lsn_advances_with_mutations():
    page = Page.new(1, PageType.LEAF)
    page.insert(1, b"a", lsn=17)
    assert page.page_lsn == 17
    page.update(1, b"b", lsn=23)
    assert page.page_lsn == 23


def test_rebuild_replaces_contents():
    page = Page.new(1, PageType.LEAF)
    for i in range(10):
        page.insert(i, b"old%d" % i, i + 1)
    page.rebuild([(100, b"new-a"), (200, b"new-b")], lsn=50)
    assert page.keys() == [100, 200]
    assert page.get(100) == b"new-a"
    assert page.get(5) is None
    assert page.page_lsn == 50


def test_mods_replay_to_identical_image():
    """The core redo property: applying the drained modifications to the
    original image reproduces the current image byte-for-byte."""
    page = Page.new(1, PageType.LEAF)
    page.drain_mods()
    before = page.to_bytes()
    page.insert(5, b"five", 1)
    page.insert(2, b"two", 2)
    page.update(5, b"FIVE", 3)
    page.delete(2, 4)
    records = [
        RedoRecord(i + 1, 1, offset, data)
        for i, (offset, data) in enumerate(page.drain_mods())
    ]
    assert apply_records(before, records) == page.to_bytes()


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.binary(min_size=1, max_size=40)),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=50, deadline=None)
def test_page_behaves_like_dict(ops):
    """Property: a page with mixed insert/update/delete mirrors a dict."""
    page = Page.new(1, PageType.LEAF)
    model = {}
    lsn = 1
    for key, value in ops:
        if key in model:
            if value[0] % 3 == 0:
                page.delete(key, lsn)
                del model[key]
            else:
                if page.update(key, value, lsn):
                    model[key] = value
        else:
            if page.insert(key, value, lsn):
                model[key] = value
        lsn += 1
    assert sorted(page.keys()) == sorted(model)
    for key, value in model.items():
        assert page.get(key) == value


@given(
    st.lists(
        st.tuples(st.integers(0, 200), st.binary(min_size=1, max_size=60)),
        min_size=1,
        max_size=100,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=50, deadline=None)
def test_mods_replay_property(ops):
    """Property: redo replay reproduces the page for arbitrary inserts."""
    page = Page.new(1, PageType.LEAF)
    page.drain_mods()
    before = page.to_bytes()
    applied = 0
    for key, value in ops:
        if page.insert(key, value, applied + 1):
            applied += 1
    records = [
        RedoRecord(i + 1, 1, offset, data)
        for i, (offset, data) in enumerate(page.drain_mods())
    ]
    assert apply_records(before, records) == page.to_bytes()
