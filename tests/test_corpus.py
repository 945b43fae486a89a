"""Corpus tests: enumeration counts match the known isomorphism-class numbers."""

from treebed.corpus import all_trees_up_to, connected_hosts_up_to_5, host_corpus


def test_connected_host_counts():
    hosts = connected_hosts_up_to_5()
    by_n = {}
    for g in hosts:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    # 1, 1, 2, 6, 21 connected graphs on 1..5 vertices up to isomorphism
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


def test_tree_enumeration_counts():
    trees = all_trees_up_to(8)
    by_n = {}
    for t in trees:
        by_n[t.n] = by_n.get(t.n, 0) + 1
    # free trees on 1..8 vertices up to isomorphism
    assert by_n == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def test_host_corpus_reproducible():
    a = host_corpus()
    b = host_corpus()
    assert [g.edges() for g in a] == [g.edges() for g in b]
    assert all(g.is_connected() for g in a)
    assert max(g.n for g in a) == 8
