import inspect
import random

import pytest

from conftest import brute_min_hitting_set, first_dfs_hitting_set, searched_down_hitting_set
import rbsep.hitting
from rbsep.exact import all_pairs_difference_masks
from rbsep.generators import gen_random_twin_free
from rbsep.graphs import bits_of, mask_of
from rbsep.hitting import Instance, by_size, columns, hitting_set_within, minimum_hitting_set, select


def as_set(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def random_family(rng: random.Random) -> tuple[list[int], int]:
    # Unsorted, with repeats: the kernel must not rely on either.
    n = rng.randint(1, 9)
    masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 14))]
    masks += [rng.choice(masks) for _ in range(rng.randint(0, 4))]
    rng.shuffle(masks)
    return masks, n


def wide_family(rng: random.Random) -> tuple[list[int], int]:
    # Masks of 31 to 130 bits span several of CPython's 30-bit int digits:
    # dense ones, sparser ones, and repeats.
    n = rng.randint(31, 130)
    masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 40))]
    masks += [m & rng.getrandbits(n) | 1 << rng.randrange(n) for m in masks[:4]]
    masks += [rng.choice(masks) for _ in range(rng.randint(0, 4))]
    rng.shuffle(masks)
    return masks, n


def test_columns_transpose_the_masks():
    masks = [0b011, 0b110, 0b101, 0b110]
    assert columns(masks, 4) == [0b0101, 0b1011, 0b1110, 0]
    assert sorted(masks, key=by_size) == [0b011, 0b101, 0b110, 0b110]


def test_columns_rejects_a_mask_wider_than_n():
    # A wide row would shift every later column of the base-2 text.
    for masks in ([0b1000], [0b10000, 1]):
        with pytest.raises(ValueError):
            columns(masks, 3)
    for n in range(4):
        assert columns([], n) == [0] * n


def test_columns_match_a_set_transpose():
    rng = random.Random(7)
    for family in [random_family] * 150 + [wide_family] * 40:
        masks, n = family(rng)
        n += rng.randint(0, 2)  # spare columns stay empty
        sets = [as_set(m) for m in masks]
        expected = [sum(1 << i for i, s in enumerate(sets) if v in s) for v in range(n)]
        assert columns(masks, n) == expected


def test_select_reads_the_entries_at_the_bits_of_a_mask():
    rng = random.Random(12)
    for _ in range(300):
        table = [rng.getrandbits(8) for _ in range(rng.randint(0, 70))]
        m = rng.randrange(1 << len(table))
        assert list(select(table, m)) == [table[v] for v in bits_of(m)]


def test_instance_fills_on_read_as_the_eager_maps():
    rng = random.Random(8)
    for family in [random_family] * 150 + [wide_family] * 40:
        masks, n = family(rng)
        cols = columns(masks, n)
        inst = Instance(masks, n)
        assert inst.masks is masks and inst.cols == cols and inst.keep == [~col for col in cols]
        assert inst.full == sum(1 << i for i in range(len(masks)))
        ids = list(range(len(masks))) * 2
        rng.shuffle(ids)
        for i in ids:
            hit = 0
            for v in as_set(masks[i]):
                hit |= cols[v]
            assert inst[i] == ~hit


def test_instance_stays_empty_until_read():
    masks = [0b011, 0b110, 0b101, 0b1000]
    inst = Instance(masks, 4)
    assert inst.masks is masks and not inst and len(inst.keep) == 4
    assert inst[2] == ~0b0111
    assert sorted(inst) == [2]


def test_traced_entries_keep_a_stats_parameter():
    # The benchmark's span tracer (perfbench/spans.py) finds each entry's node
    # counter by the parameter name ``stats``.
    for entry in (minimum_hitting_set, hitting_set_within):
        assert "stats" in inspect.signature(entry).parameters


def test_one_instance_serves_many_searches():
    # The sweep reuses one instance across its decisions; the maps it fills
    # must not move any answer or node count.
    rng = random.Random(9)
    for _ in range(60):
        masks, n = random_family(rng)
        shared = Instance(masks, n)
        for _ in range(6):
            rest = rng.randrange(1 << len(masks))
            limit = rng.randint(0, 4)
            stats, fresh_stats = [0], [0]
            found = hitting_set_within(shared, rest, limit, stats)
            assert found == hitting_set_within(Instance(masks, n), rest, limit, fresh_stats)
            assert stats == fresh_stats


def test_hitting_set_within_decides_as_the_oracle():
    rng = random.Random(3)
    for _ in range(150):
        masks, n = random_family(rng)
        rest = rng.randrange(1 << len(masks))
        live = [m for i, m in enumerate(masks) if rest >> i & 1]
        opt = brute_min_hitting_set(as_set(m) for m in live)
        for k in range(opt + 2):
            stats = [0]
            found = hitting_set_within(Instance(masks, n), rest, k, stats)
            assert (found is not None) == (k >= opt)
            assert stats[0] >= 1
            if found is not None:
                assert found.bit_count() <= k
                assert all(m & found for m in live)


def test_hitting_set_within_returns_the_first_dfs_set():
    # The packing bound and the last-level rule may only cut subtrees with
    # no solution, so the set found is the one plain DFS finds first, with
    # the kernel's branch order: most live masks hit first above limit 2.
    rng = random.Random(5)
    for _ in range(150):
        masks, n = random_family(rng)
        sets = [as_set(m) for m in masks]
        rest = rng.randrange(1 << len(masks))
        live = [i for i in range(len(masks)) if rest >> i & 1]
        opt = brute_min_hitting_set(sets[i] for i in live)
        for k in range(opt + 2):
            found = hitting_set_within(Instance(masks, n), rest, k, [0])
            expected = first_dfs_hitting_set(sets, live, k)
            assert (None if found is None else as_set(found)) == expected


def test_last_two_levels_return_the_first_dfs_set():
    # Limits 1 and 2 are decided in place. Half the families get a vertex
    # other than 0 in every mask, so at limit 2 one pivot vertex alone can
    # hit ``rest``: the answer is that vertex, not it plus a spurious 0. A
    # limit-2 node counts itself and each pivot vertex it tries.
    rng = random.Random(10)
    for trial in range(400):
        masks, n = random_family(rng)
        if trial % 2:
            common = 1 << rng.randint(1, n)
            n += 1
            masks = [m << 1 | common for m in masks]
        sets = [as_set(m) for m in masks]
        rest = rng.randrange(1, 1 << len(masks))
        live = [i for i in range(len(masks)) if rest >> i & 1]
        for limit in (1, 2):
            stats = [0]
            found = hitting_set_within(Instance(masks, n), rest, limit, stats)
            expected = first_dfs_hitting_set(sets, live, limit)
            assert (None if found is None else as_set(found)) == expected
            tried = sorted(sets[live[0]])
            if limit == 2 and expected is not None:
                tried = tried[: 1 + min(tried.index(v) for v in expected if v in sets[live[0]])]
            assert stats[0] == (1 if limit == 1 else 1 + len(tried))


def test_limit_two_skips_banned_pivot_vertices_only():
    # Exclusion bans a vertex from the pivot of later siblings' subtrees; a
    # banned vertex may still be the leaf's answer. Bans here are drawn at
    # random, so a banned pivot vertex could often finish the cover itself.
    rng = random.Random(11)
    for _ in range(400):
        masks, n = random_family(rng)
        sets = [as_set(m) for m in masks]
        rest = rng.randrange(1, 1 << len(masks))
        live = [i for i in range(len(masks)) if rest >> i & 1]
        banned = rng.randrange(1 << n)
        expected = None
        for v in sorted(sets[live[0]] - as_set(banned)):
            sub = first_dfs_hitting_set(sets, [i for i in live if v not in sets[i]], 1)
            if sub is not None:
                expected = sub | {v}
                break
        kernel = Instance(masks, n)
        found = rbsep.hitting._search(masks, kernel, kernel.keep, rest, 2, [0], 0, banned)
        assert (None if found is None else as_set(found)) == expected


def test_minimum_hitting_set_returns_the_first_dfs_set():
    # Searching down from the greedy's set returns the first DFS set below
    # the last incumbent whose own search down is refuted. Where the greedy
    # is optimal that is the greedy's set, so half the families have masks
    # of 2 or 3 vertices, where the greedy is often above the optimum and
    # the searches below it branch at limit 3 and more.
    rng = random.Random(6)
    for trial in range(300):
        if trial % 2:
            n = rng.randint(8, 16)
            masks = [mask_of(rng.sample(range(n), rng.randint(2, 3)))
                     for _ in range(rng.randint(10, 30))]
        else:
            masks, _n = random_family(rng)
        sets = [as_set(m) for m in sorted(set(masks), key=by_size)]
        expected = searched_down_hitting_set(sets)
        assert len(expected) == brute_min_hitting_set(sets)
        assert as_set(minimum_hitting_set(masks)) == expected


@pytest.mark.parametrize("seed", range(3))
def test_each_pruning_rule_cuts_nodes(monkeypatch, seed):
    # The class bound (on for all-pairs masks of a twin-free graph) and the
    # exclusion of tried pivot vertices each cut nodes, and neither moves the
    # set found.
    g = gen_random_twin_free(22, 0.3, seed)
    masks = all_pairs_difference_masks(g)

    def search(classes):
        stats = [0]
        return minimum_hitting_set(masks, stats=stats, classes=classes), stats[0]

    found, nodes = search(g.n)
    unbounded = search(0)
    assert unbounded[0] == found and unbounded[1] > nodes
    # Dropping the trailing ``banned`` argument on every call, the recursive
    # ones included, turns exclusion off.
    full = rbsep.hitting._search
    monkeypatch.setattr(rbsep.hitting, "_search", lambda *args: full(*args[:7]))
    unexcluded = search(g.n)
    assert unexcluded[0] == found and unexcluded[1] > nodes


def test_minimum_hitting_set_is_optimal():
    rng = random.Random(4)
    for _ in range(150):
        masks, _n = random_family(rng)
        opt = brute_min_hitting_set(as_set(m) for m in masks)
        found = minimum_hitting_set(masks)
        assert found.bit_count() == opt
        assert all(m & found for m in masks)
        assert minimum_hitting_set(masks, budget=opt - 1) is None


def test_minimum_hitting_set_rejects_an_empty_mask():
    assert minimum_hitting_set([]) == 0
    with pytest.raises(ValueError):
        minimum_hitting_set([0b1, 0])
