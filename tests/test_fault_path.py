"""Differential tests for the fault-path structures.

Each fast structure is checked against the per-item reference it
replaces: the batched TLB shootdown against a per-page ``invalidate``
loop, the SM's cached warp ring against the list flattened from its
resident blocks, and ``HierarchicalLRU.touch`` against ``insert``.
"""

import copy
import random

import numpy as np
import pytest

from repro.config import SimulatorConfig
from repro.core.engine import make_simulator
from repro.core.fastpath import MaskedTlb
from repro.errors import PolicyError
from repro.gpu.kernel import ThreadBlockSpec, WarpSpec
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import WarpState
from repro.memory.addressing import AddressSpace
from repro.memory.lru import HierarchicalLRU
from repro.memory.tlb import Tlb

SPACE = AddressSpace()


def random_tlb(cls, rng: random.Random):
    """A TLB after a random mix of fills and lookups."""
    tlb = cls(rng.choice([1, 4, 16, 64]))
    for _ in range(rng.randrange(0, 200)):
        page = rng.randrange(0, 96)
        if rng.random() < 0.6:
            tlb.insert(page)
        else:
            tlb.lookup(page)
    return tlb


class TestBatchedShootdown:
    @pytest.mark.parametrize("cls", [Tlb, MaskedTlb])
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_page_invalidate(self, cls, seed):
        rng = random.Random(seed)
        batched = random_tlb(cls, rng)
        reference = copy.deepcopy(batched)
        pages = rng.sample(range(0, 128), rng.randrange(0, 40))

        expected = {p for p in pages if reference.invalidate(p)}
        assert batched.invalidate_many(set(pages)) == expected

        assert list(batched._entries) == list(reference._entries)
        assert (batched.hits, batched.misses) == \
            (reference.hits, reference.misses)
        if cls is MaskedTlb:
            probe = np.arange(0, 160, dtype=np.int64)
            members = np.array([p in batched for p in range(160)])
            assert np.array_equal(batched.mask.gather(probe), members)
            assert np.array_equal(reference.mask.gather(probe), members)

    def test_keeps_lru_order_of_survivors(self):
        tlb = Tlb(4)
        for page in (1, 2, 3, 4):
            tlb.insert(page)
        tlb.lookup(1)
        assert tlb.invalidate_many({3, 7}) == {3}
        tlb.insert(5)
        tlb.insert(6)  # evicts the LRU survivor, page 2
        assert list(tlb._entries) == [4, 1, 5, 6]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_simulator_shootdown_matches_per_page_loop(self, engine):
        rng = random.Random(7)
        sim = make_simulator(SimulatorConfig(num_sms=4, tlb_entries=32,
                                             engine=engine))
        for sm in sim.sms:
            for _ in range(60):
                sm.tlb.insert(rng.randrange(0, 64))
        reference = [copy.deepcopy(sm.tlb) for sm in sim.sms]
        pages = rng.sample(range(0, 80), 20)
        for tlb in reference:
            for page in pages:
                tlb.invalidate(page)
        sim.tlb_shootdown(pages)
        for sm, tlb in zip(sim.sms, reference):
            assert list(sm.tlb._entries) == list(tlb._entries)


def flattened(sm: StreamingMultiprocessor) -> list:
    return [w for b in sm._blocks for w in b.warps]


def finish_block(block) -> None:
    for warp in block.warps:
        warp.cursor = len(warp.accesses)
        warp.state = WarpState.DONE


class TestWarpRing:
    @pytest.mark.parametrize("seed", range(30))
    def test_ring_matches_blocks(self, seed):
        rng = random.Random(seed)
        sm = StreamingMultiprocessor(0, tlb_entries=8)
        next_tb = next_warp = 0
        for _ in range(40):
            before = sm.all_warps()
            snapshot = list(before)
            op = rng.random()
            if op < 0.45 or not sm._blocks:
                warps = [WarpSpec([(rng.randrange(64), False)
                                   for _ in range(rng.randrange(1, 4))])
                         for _ in range(rng.randrange(1, 4))]
                sm.add_thread_block(next_tb, ThreadBlockSpec(warps),
                                    next_warp)
                next_tb += 1
                next_warp += len(warps)
            elif op < 0.75:
                for block in rng.sample(sm._blocks,
                                        rng.randrange(1, len(sm._blocks)
                                                      + 1)):
                    finish_block(block)
                sm.reap_finished_blocks()
            else:
                sm.next_ready_warp()
            assert sm.all_warps() == flattened(sm)
            # The ring is replaced, never edited in place, so a list a
            # caller holds keeps describing the warps it was taken from.
            assert before == snapshot

    def test_next_ready_warp_round_robin_after_reap(self):
        sm = StreamingMultiprocessor(0, tlb_entries=8)
        spec = ThreadBlockSpec([WarpSpec([(1, False)]),
                                WarpSpec([(2, False)])])
        sm.add_thread_block(0, spec, 0)
        sm.add_thread_block(1, spec, 2)
        finish_block(sm._blocks[0])
        assert sm.reap_finished_blocks() == [0]
        assert [w.warp_id for w in sm.all_warps()] == [2, 3]
        assert sm.next_ready_warp().warp_id == 2
        assert sm.next_ready_warp().warp_id == 3

    def test_idle_is_pure(self):
        sm = StreamingMultiprocessor(0, tlb_entries=8)
        sm.add_thread_block(0, ThreadBlockSpec(
            [WarpSpec([(p, False)]) for p in range(4)]), 0)
        sm.next_ready_warp()
        index = sm._rr_index
        for _ in range(3):
            assert not sm.idle
        assert sm._rr_index == index
        for warp in sm.all_warps():
            warp.block_on(0)
        assert sm.idle
        assert sm._rr_index == index


def lru_state(lru: HierarchicalLRU) -> list:
    """Full chunk -> block -> page order of a hierarchical LRU."""
    return [(chunk_id, [(block_id, list(pages))
                        for block_id, pages in chunk.blocks.items()])
            for chunk_id, chunk in lru._chunks.items()]


class TestHierarchicalTouch:
    @pytest.mark.parametrize("seed", range(30))
    def test_touch_leaves_insert_order(self, seed):
        rng = random.Random(seed)
        touched = HierarchicalLRU()
        inserted = HierarchicalLRU()
        resident: list[int] = []
        for _ in range(150):
            if resident and rng.random() < 0.5:
                page = rng.choice(resident)
                touched.touch(page)
                inserted.insert(page)
            else:
                page = rng.randrange(0, 3 * SPACE.pages_per_large_page)
                touched.insert(page)
                inserted.insert(page)
                if page not in resident:
                    resident.append(page)
            assert lru_state(touched) == lru_state(inserted)
        assert len(touched) == len(inserted)

    def test_touch_of_absent_page_raises_without_reordering(self):
        lru = HierarchicalLRU()
        block = SPACE.pages_per_block
        chunk = SPACE.pages_per_large_page
        for page in (0, 1, block, chunk):
            lru.insert(page)
        before = lru_state(lru)
        absent = {
            "no chunk": 5 * chunk,
            "no block": 3 * block,
            "no page": 2,
        }
        for case, page in absent.items():
            with pytest.raises(PolicyError):
                lru.touch(page)
            assert lru_state(lru) == before, case
