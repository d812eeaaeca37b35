"""Topology, mixing weights, gossip stream, and edge-list format tests."""

import hashlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from dsmgame import network
from dsmgame.network import (
    GOSSIP_BLOCK,
    CommGraph,
    DigitLimitError,
    build_weights,
    check_weights,
    generate_topology,
    gossip_stream,
    lemire,
    load_edge_list,
    mix,
    parse_int,
)
from conftest import AVX2_ENV, STAR_5, src_env
from oracles import (
    dense_weights,
    reference_gossip_stream,
    reference_topology_edges,
    save_edge_list,
    slot_weights,
)


# --- construction and connectivity ------------------------------------------


def test_graph_accepts_a_path_given_either_way_round():
    path = CommGraph(4, frozenset({(1, 0), (1, 2), (3, 2), (2, 3)}))
    assert path.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert [path.neighbors(node) for node in range(4)] == [(1,), (0, 2), (1, 3), (2,)]


def test_is_connected_two_disjoint_edges():
    # every node has a neighbour, yet the edges fall into two pieces
    with pytest.raises(ValueError, match="^graph is not connected$"):
        CommGraph(4, [(1, 0), (3, 2)])
    with pytest.raises(ValueError, match="^graph is not connected$"):
        CommGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="^graph is not connected$"):
        CommGraph(4, frozenset({(0, 1), (2, 3)}))


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        CommGraph(3, frozenset({(0, 0), (0, 1), (1, 2)}))
    # a self-loop is refused before an out-of-range edge, wherever it comes
    with pytest.raises(ValueError, match="^self-loop on node 1 not allowed$"):
        CommGraph(3, [(0, 7), (1, 1), (0, 1), (1, 2)])


def test_graph_rejects_out_of_range_nodes():
    with pytest.raises(ValueError):
        CommGraph(3, frozenset({(0, 1), (1, 3)}))
    with pytest.raises(ValueError, match=r"^edge \(0, 7\) outside node range 0\.\.2$"):
        CommGraph(3, [(7, 0), (0, 1), (1, 2)])


def test_graph_neighbor_lookup():
    assert STAR_5.neighbors(0) == (1, 2, 3, 4)
    assert STAR_5.neighbors(3) == (0,)


# --- weights ----------------------------------------------------------------


def test_graph_slot_table_lists_each_node_then_its_neighbours():
    assert STAR_5.starts.tolist() == [0, 5, 7, 9, 11]
    assert STAR_5.cols.tolist() == [0, 1, 2, 3, 4, 1, 0, 2, 0, 3, 0, 4, 0]
    for node in range(5):
        stop = STAR_5.starts[node + 1] if node < 4 else STAR_5.cols.size
        row = STAR_5.cols[STAR_5.starts[node]:stop]
        assert tuple(row) == (node, *STAR_5.neighbors(node))


def test_star_graph_weights_worked_example():
    w = build_weights(STAR_5, 0.5)
    assert w.shape == (5 + 2 * 4,)
    dense = dense_weights(STAR_5, w)
    assert dense[0, 1] == pytest.approx(0.125)
    assert dense[0, 0] == pytest.approx(0.5)
    assert dense[1, 1] == pytest.approx(0.875)
    assert dense[1, 2] == 0.0


def test_complete_graph_weights_are_uniform():
    n = 6
    edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n))
    w = build_weights(CommGraph(n, edges), (n - 1) / n)
    np.testing.assert_allclose(w, np.full(n * n, 1.0 / n), atol=1e-15)


@pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
def test_weights_doubly_stochastic_on_random_graphs(tau):
    for seed in range(5):
        graph = generate_topology(20, 3.0, np.random.default_rng(seed))
        w = dense_weights(graph, build_weights(graph, tau))
        assert w.min() >= 0.0
        np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(w, w.T)


def test_weights_keep_their_bits_on_the_canonical_topology():
    graph = generate_topology(50, 3.0, np.random.default_rng(0))
    digest = hashlib.sha256(build_weights(graph, 0.5).tobytes()).hexdigest()
    assert digest == "a31ce2b049e71fe4fe5bb7e131136fd983fea19683b40839667e4a2122d8723c"


def test_check_weights_passes_valid_weights_through():
    # its refusals are tested through run_algorithm2, which calls it
    graph = generate_topology(20, 3.0, np.random.default_rng(1))
    w = build_weights(graph, 0.5)
    assert check_weights(graph, w) is w
    assert check_weights(graph, w.tolist()).tobytes() == w.tobytes()


def test_weights_reject_bad_tau():
    for tau in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            build_weights(STAR_5, tau)


def test_mixing_kernel_matches_the_dense_product_at_n50():
    # row i of the mix is sum_j W[i, j] * values[j]: a non-symmetric W (half
    # the identity plus half the cyclic shift on the ring) pins the direction
    n = 50
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 2.0, (n, 24))
    graph = generate_topology(n, 3.0, np.random.default_rng(0))
    ring = CommGraph(n, frozenset((k, (k + 1) % n) for k in range(n)))
    shift = 0.5 * (np.eye(n) + np.roll(np.eye(n), 1, axis=1))
    for g, w in ((graph, build_weights(graph, 0.5)), (ring, slot_weights(ring, shift))):
        buf = np.empty((w.size, 24))
        mixed = mix(g, w, values, buf)
        np.testing.assert_allclose(mixed, dense_weights(g, w) @ values, rtol=0, atol=1e-15)
    assert np.max(np.abs(mixed - shift.T @ values)) > 0.1


def test_mixing_bits_do_not_depend_on_the_cpu_dispatch():
    # the kernel is elementwise products and in-order sums: a child process
    # on numpy's AVX2 loops and OpenBLAS's Haswell kernel gets the same bits
    code = (
        "import hashlib, numpy as np\n"
        "from dsmgame.network import build_weights, generate_topology, mix\n"
        "g = generate_topology(500, 3.0, np.random.default_rng(0))\n"
        "w = build_weights(g, 0.5)\n"
        "v = np.random.default_rng(1).uniform(0.0, 2.0, (500, 24))\n"
        "print(hashlib.sha256(mix(g, w, v, np.empty((w.size, 24))).tobytes()).hexdigest())\n"
    )
    digests = []
    for extra in ({}, AVX2_ENV):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**src_env(), **extra},
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


# --- gossip stream ----------------------------------------------------------


def test_two_node_gossip_only_edge():
    graph = CommGraph(2, frozenset({(0, 1)}))
    for event in gossip_stream(graph, np.random.default_rng(3), 50):
        assert {event.initiator, event.contact} == {0, 1}


def test_gossip_initiators_uniform():
    graph = generate_topology(10, 3.0, np.random.default_rng(8))
    events = list(gossip_stream(graph, np.random.default_rng(123), 100_000))
    counts = Counter(e.initiator for e in events)
    expected = len(events) / graph.n
    sigma = np.sqrt(expected * (1 - 1 / graph.n))
    for node in range(graph.n):
        assert abs(counts[node] - expected) <= 3 * sigma


def test_gossip_contacts_uniform_over_neighborhoods():
    graph = generate_topology(10, 3.0, np.random.default_rng(8))
    events = list(gossip_stream(graph, np.random.default_rng(321), 100_000))
    per_initiator = Counter(e.initiator for e in events)
    pair_counts = Counter((e.initiator, e.contact) for e in events)
    for node in range(graph.n):
        deg = len(graph.neighbors(node))
        n_events = per_initiator[node]
        expected = n_events / deg
        sigma = np.sqrt(n_events * (1 / deg) * (1 - 1 / deg))
        for nbr in graph.neighbors(node):
            assert abs(pair_counts[(node, nbr)] - expected) <= 3.5 * sigma


def test_gossip_stream_reproducible():
    graph = generate_topology(12, 3.0, np.random.default_rng(5))
    a = list(gossip_stream(graph, np.random.default_rng(9), 500))
    b = list(gossip_stream(graph, np.random.default_rng(9), 500))
    assert a == b


def test_gossip_stream_events_are_edges():
    graph = generate_topology(15, 4.0, np.random.default_rng(2))
    for event in gossip_stream(graph, np.random.default_rng(6), 1000):
        assert event.contact in graph.neighbors(event.initiator)
        assert event.initiator != event.contact


def test_gossip_stream_rejects_zero_count():
    with pytest.raises(ValueError):
        next(gossip_stream(STAR_5, np.random.default_rng(0), 0))


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
#: the canonical study's graph (nine of its nodes have a single neighbour),
#: a star (four of five) and a path
GOSSIP_GRAPHS = {
    "random-50": generate_topology(50, 3.0, np.random.default_rng(0)),
    "star": STAR_5,
    "path": CommGraph(3, frozenset({(0, 1), (1, 2)})),
}


def same_state(a, b) -> bool:
    """Whether two bit generator states, as `bit_generator.state` gives
    them, are equal, arrays compared by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_same_stream(graph, make_rng, count):
    """`gossip_stream` and the event-by-event reference give the same
    events on two generators from `make_rng`, and leave them in the same
    state."""
    rng, reference = make_rng(), make_rng()
    events = list(gossip_stream(graph, rng, count))
    assert events == list(reference_gossip_stream(graph, reference, count))
    assert same_state(rng.bit_generator.state, reference.bit_generator.state)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("graph", GOSSIP_GRAPHS.values(), ids=GOSSIP_GRAPHS.keys())
def test_gossip_block_draws_are_the_event_by_event_draws(bit_generator, graph):
    for count in (1, GOSSIP_BLOCK - 1, GOSSIP_BLOCK, GOSSIP_BLOCK + 1):
        assert_same_stream(graph, lambda: np.random.Generator(bit_generator(17)), count)


def untemper(output: int) -> int:
    """The MT19937 state word whose tempered output is `output`."""
    y = output ^ output >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def mt19937_drawing(seed: int, draws: dict[int, int]) -> np.random.Generator:
    """An MT19937 generator whose next 624 32-bit draws are its seed's,
    except `draws[k]` at each position k given."""
    bit_generator = np.random.MT19937(seed)
    state = bit_generator.state
    key = state["state"]["key"].copy()
    for k, value in draws.items():
        key[k] = untemper(value)
    state["state"].update(key=key, pos=0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


#: a 0 at about one draw in four of 624; numpy rejects a draw of 0 for
#: every bound that is not a power of two
ZERO_DRAWS = dict.fromkeys([*range(0, 624, 5), *range(1, 60, 3)], 0)


@pytest.mark.parametrize("block", [1, 2, 3, 7, GOSSIP_BLOCK])
@pytest.mark.parametrize("graph", GOSSIP_GRAPHS.values(), ids=GOSSIP_GRAPHS.keys())
def test_gossip_block_draws_survive_rejected_draws(monkeypatch, block, graph):
    # rejected draws end a block early, and one met first in its block
    # leaves that event to integers() itself
    drawn = mt19937_drawing(4, ZERO_DRAWS).integers(0, 2**32, size=624, dtype=np.uint32)
    assert (drawn == 0).sum() > 100
    monkeypatch.setattr(network, "GOSSIP_BLOCK", block)
    for count in (1, 2, 5, 400):
        assert_same_stream(graph, lambda: mt19937_drawing(4, ZERO_DRAWS), count)


@pytest.mark.parametrize("bound", [3, 50, 2**31 + 1])
def test_lemire_keeps_and_rejects_the_draws_integers_does_at_the_threshold(bound):
    # draws whose products' low 32 bits are 2**32 % bound, which numpy
    # keeps, and the largest value below it, which it rejects
    threshold = 2**32 % bound
    step = bound & -bound  # the low bits of a product are multiples of it
    inverse = pow(bound // step, -1, 2**32)
    kept, rejected = (low // step * inverse % 2**32 for low in (threshold, threshold - step))
    draws = [rejected, kept, kept, rejected, rejected, kept]
    values, refused = lemire(np.array(draws, dtype=np.uint64), bound)
    assert refused.tolist() == [True, False, False, True, True, False]
    rng = mt19937_drawing(5, dict(enumerate(draws)))
    assert [int(rng.integers(bound)) for _ in range(3)] == values[~refused].tolist()


@pytest.mark.parametrize("bound", [1, 2, 50, 2**31 + 1])
def test_lemire_is_what_integers_makes_of_the_draws(bound):
    rng, reference = np.random.default_rng(21), np.random.default_rng(21)
    draws = rng.integers(0, 2**32, size=2000, dtype=np.uint32).astype(np.uint64)
    values, rejected = lemire(draws, bound)
    if bound == 1:
        # integers(1) takes no draw at all
        assert int(reference.integers(1)) == 0
        fresh = np.random.default_rng(21).bit_generator.state
        assert same_state(reference.bit_generator.state, fresh)
        assert not values.any() and not rejected.any()
        return
    kept = values[~rejected]
    assert kept.tolist() == [int(reference.integers(bound)) for _ in kept]
    # the values took the draws up to the last one kept
    used = np.random.default_rng(21)
    used.integers(0, 2**32, size=np.flatnonzero(~rejected)[-1] + 1, dtype=np.uint32)
    assert same_state(used.bit_generator.state, reference.bit_generator.state)
    if bound == 2**31 + 1:
        # about half the draws fall below 2**32 % bound = 2**31 - 1
        assert 800 < rejected.sum() < 1200


# --- topology generation ----------------------------------------------------


def test_two_node_topology_is_single_edge():
    graph = generate_topology(2, 3.0, np.random.default_rng(0))
    assert graph.edges == frozenset({(0, 1)})


def test_topology_connected_with_target_degree():
    graph = generate_topology(50, 3.0, np.random.default_rng(13))
    # grow the set reached from node 0 over the edge list until it stops
    reached, size = {0}, 0
    while len(reached) > size:
        size = len(reached)
        reached |= {k for n, k in graph.edges if n in reached}
        reached |= {n for n, k in graph.edges if k in reached}
    assert len(reached) == graph.n
    mean_degree = 2 * len(graph.edges) / graph.n
    assert 2.0 <= mean_degree <= 5.0


def test_topology_deterministic_per_seed():
    a = generate_topology(30, 3.0, np.random.default_rng(99))
    b = generate_topology(30, 3.0, np.random.default_rng(99))
    assert a.edges == b.edges


@pytest.mark.parametrize("degree", [0.0, -3.0, np.nan, np.inf])
def test_topology_rejects_a_degree_that_is_not_positive_and_finite(degree):
    with pytest.raises(ValueError, match="target degree must be positive and finite"):
        generate_topology(10, degree, np.random.default_rng(0))


@pytest.mark.parametrize(
    "n,degree,seed",
    [(2, 3.0, 0), (3, 1.0, 4), (5, 2.5, 1), (6, 10.0, 2), (17, 3.0, 7),
     (50, 3.0, 0), (50, 4.0, 13), (120, 1.0, 5), (300, 3.0, 99)],
)
def test_topology_matches_reference_and_leaves_rng_in_same_state(n, degree, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    graph = generate_topology(n, degree, rng)
    assert graph.edges == reference_topology_edges(n, degree, ref_rng)
    assert rng.integers(2**62) == ref_rng.integers(2**62)


# --- edge-list format -------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    graph = generate_topology(17, 3.0, np.random.default_rng(7))
    path = tmp_path / "graph.edges"
    save_edge_list(graph, path)
    loaded = load_edge_list(path, graph.n)
    assert loaded.edges == graph.edges


def test_edge_list_file_is_one_based(tmp_path):
    path = tmp_path / "g.edges"
    save_edge_list(CommGraph(2, frozenset({(0, 1)})), path)
    assert path.read_text() == "1 2\n"


def test_edge_list_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("1 2\n3\n")
    with pytest.raises(ValueError, match="bad.edges:2"):
        load_edge_list(path, 3)


def test_edge_list_rejects_zero_based_ids(tmp_path):
    path = tmp_path / "zero.edges"
    path.write_text("0 1\n")
    with pytest.raises(ValueError, match="1-based"):
        load_edge_list(path, 2)


def test_edge_list_names_an_id_above_the_node_count(tmp_path):
    # the file's line, the id as typed and the 1-based range, not 0-based ids
    path = tmp_path / "big.edges"
    path.write_text("1 2\n2 051\n")
    with pytest.raises(ValueError, match=r"big\.edges:2: node id 051 outside 1\.\.50$"):
        load_edge_list(path, 50)


def test_parse_int_refuses_a_numeral_past_the_digit_limit_by_its_length():
    limit = sys.get_int_max_str_digits()
    assert parse_int("7" * limit) == int("7" * limit)
    assert parse_int("-12") == -12
    # the refusal quotes a short prefix and gives no advice on the limit
    with pytest.raises(DigitLimitError) as refused:
        parse_int("7" * (limit + 1))
    assert str(refused.value) == (
        f"777777777777... is {limit + 1} characters long, past the limit of "
        f"{limit} digits for an integer"
    )
    # a numeral that is not an integer keeps int()'s own error
    with pytest.raises(ValueError) as refused:
        parse_int("1.5")
    assert not isinstance(refused.value, DigitLimitError)
