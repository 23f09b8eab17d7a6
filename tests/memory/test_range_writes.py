"""Range writes against a per-granule reference model.

``TaggedMemory.write_bytes``/``fill`` clear a whole tag range, and
``RevocationMap.paint``/``clear`` set or clear a whole bit range, in one
operation each.  These properties pin them to the simplest possible
model — decide every byte, tag and bit on its own — including the
failure contract: an out-of-range call raises before it changes
anything, and the dirty hook sees exactly the ``(address, size)`` of
the call.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.capability import CAP_SIZE_BYTES, Capability, Permission as P
from repro.memory.revocation_map import RevocationMap
from repro.memory.tagged_memory import MemoryError_, TaggedMemory

BASE = 0x2000_0000
SIZE = 256
GRANULES = SIZE // CAP_SIZE_BYTES
RW = {P.GL, P.LD, P.SD, P.MC, P.SL, P.LM, P.LG}

HEAP_BASE = 0x2006_0000


def snapshot(mem: TaggedMemory):
    data = mem.read_bytes(BASE, SIZE)
    tags = [mem.tag_at(BASE + g * CAP_SIZE_BYTES) for g in range(GRANULES)]
    return data, tags


def make_memory(initial: bytes, tagged: set):
    """A bank holding ``initial`` with tagged capabilities at ``tagged``."""
    mem = TaggedMemory(BASE, SIZE)
    mem.write_bytes(BASE, initial)
    cap = Capability.from_bounds(BASE, SIZE, RW)
    for g in sorted(tagged):
        mem.write_capability(BASE + g * CAP_SIZE_BYTES, cap)
    calls = []
    mem.add_dirty_hook(lambda address, size: calls.append((address, size)))
    return mem, calls


def reference_write(state, address: int, data: bytes):
    """Per-byte model of a data write: each byte clears its own granule's tag.

    Returns the expected state, or None when the write is out of range.
    """
    old_data, old_tags = state
    off = address - BASE
    if off < 0 or off + len(data) > SIZE:
        return None
    new_data = bytearray(old_data)
    new_tags = list(old_tags)
    for i, byte in enumerate(data):
        new_data[off + i] = byte
        new_tags[(off + i) // CAP_SIZE_BYTES] = False
    return bytes(new_data), new_tags


initial_bytes = st.binary(min_size=SIZE, max_size=SIZE)
tagged_granules = st.sets(st.integers(0, GRANULES - 1))
# Reaches a little past both ends of the bank so out-of-range calls occur.
addresses = st.integers(BASE - 24, BASE + SIZE + 24)


def check_write(initial, tagged, address, data, op):
    mem, calls = make_memory(initial, tagged)
    before = snapshot(mem)
    calls.clear()
    expected = reference_write(before, address, data)
    if expected is None:
        with pytest.raises(MemoryError_):
            op(mem)
        assert snapshot(mem) == before
        assert calls == []
    else:
        op(mem)
        assert snapshot(mem) == expected
        assert calls == [(address, len(data))]


class TestTaggedMemoryRangeWrites:
    @settings(max_examples=300, deadline=None)
    @given(initial_bytes, tagged_granules, addresses, st.binary(max_size=80))
    # Unaligned start and end, a straddle of three granules.
    @example(bytes(SIZE), set(range(GRANULES)), BASE + 5, b"\x11" * 14)
    # Exactly one granule, and a sub-granule write inside it.
    @example(bytes(SIZE), set(range(GRANULES)), BASE + 16, b"\x22" * 8)
    @example(bytes(SIZE), set(range(GRANULES)), BASE + 17, b"\x33" * 3)
    # Two-granule straddle, zero length, the last byte of the bank.
    @example(bytes(SIZE), set(range(GRANULES)), BASE + 7, b"\x44" * 2)
    @example(bytes(SIZE), set(range(GRANULES)), BASE + 40, b"")
    @example(bytes(SIZE), set(range(GRANULES)), BASE + SIZE, b"")
    @example(bytes(SIZE), set(range(GRANULES)), BASE + SIZE - 1, b"\x55")
    # Out of range: one byte past the end, one byte before the start.
    @example(bytes(SIZE), set(range(GRANULES)), BASE + SIZE - 8, b"\x66" * 9)
    @example(bytes(SIZE), set(range(GRANULES)), BASE - 1, b"\x77" * 4)
    def test_write_bytes_matches_reference(self, initial, tagged, address, data):
        check_write(
            initial, tagged, address, data, lambda m: m.write_bytes(address, data)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        initial_bytes,
        tagged_granules,
        addresses,
        st.integers(0, 80),
        st.integers(0, 0x1FF),
    )
    @example(bytes(SIZE), set(range(GRANULES)), BASE + 3, 29, 0xAA)
    @example(bytes(SIZE), set(range(GRANULES)), BASE + 8, 0, 0)
    @example(bytes(SIZE), set(range(GRANULES)), BASE + SIZE - 4, 8, 0)
    def test_fill_matches_reference(self, initial, tagged, address, size, value):
        data = bytes([value & 0xFF]) * size
        check_write(
            initial, tagged, address, data, lambda m: m.fill(address, size, value)
        )


def rmap_state(rmap: RevocationMap):
    g = rmap.granule_bytes
    return [rmap.is_revoked(HEAP_BASE + i * g) for i in range(rmap.granule_count)]


def reference_paint(rmap: RevocationMap, state, address: int, size: int, bit: bool):
    """Per-granule model: a granule's bit changes iff the granule overlaps
    ``[address, address+size)``.  Returns None when the call must raise."""
    if size <= 0:
        return list(state)
    end = HEAP_BASE + rmap.heap_size
    if not (HEAP_BASE <= address < end and HEAP_BASE <= address + size - 1 < end):
        return None
    g = rmap.granule_bytes
    overlaps = [
        HEAP_BASE + i * g < address + size and address < HEAP_BASE + (i + 1) * g
        for i in range(len(state))
    ]
    return [bit if hit else old for hit, old in zip(overlaps, state)]


class TestRevocationMapRangeWrites:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([8, 16, 64]),
        st.data(),
        st.booleans(),
    )
    def test_paint_and_clear_match_reference(self, granule, data, paint):
        rmap = RevocationMap(HEAP_BASE, 32 * granule, granule_bytes=granule)
        for i in data.draw(st.sets(st.integers(0, 31)), label="preset"):
            rmap.paint(HEAP_BASE + i * granule, 1)
        address = data.draw(
            st.integers(HEAP_BASE - 2 * granule, HEAP_BASE + 34 * granule),
            label="address",
        )
        size = data.draw(st.integers(-4, 6 * granule), label="size")
        before = rmap_state(rmap)
        expected = reference_paint(rmap, before, address, size, paint)
        op = rmap.paint if paint else rmap.clear
        if expected is None:
            with pytest.raises(ValueError):
                op(address, size)
            assert rmap_state(rmap) == before
        else:
            op(address, size)
            assert rmap_state(rmap) == expected

    @pytest.mark.parametrize("granule", [16, 64])
    def test_unaligned_chunk_covers_every_overlapped_granule(self, granule):
        rmap = RevocationMap(HEAP_BASE, 32 * granule, granule_bytes=granule)
        # Starts mid-granule 2, ends mid-granule 5.
        rmap.paint(HEAP_BASE + 2 * granule + 3, 3 * granule)
        assert rmap_state(rmap) == [2 <= i <= 5 for i in range(32)]
        rmap.clear(HEAP_BASE + 3 * granule, 1)
        assert rmap_state(rmap) == [i in (2, 4, 5) for i in range(32)]

    @pytest.mark.parametrize("paint", [True, False])
    def test_out_of_range_end_changes_nothing(self, paint):
        rmap = RevocationMap(HEAP_BASE, 32 * 16, granule_bytes=16)
        rmap.paint(HEAP_BASE + 29 * 16, 16)
        before = rmap_state(rmap)
        op = rmap.paint if paint else rmap.clear
        with pytest.raises(ValueError):
            op(HEAP_BASE + 28 * 16, 5 * 16)
        assert rmap_state(rmap) == before
