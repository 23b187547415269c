import itertools

import numpy as np
import pytest

from orderctx import (
    CycleError,
    EmptySubsetError,
    FinitePoset,
    SizeLimitError,
    UnknownLabelError,
    load_poset,
    philox_generator,
    poset_from_dict,
)

from conftest import oracle_directed, oracle_supremum, oracle_way_below, random_poset


def chain(*labels):
    return FinitePoset.from_cover_relations(labels, list(zip(labels, labels[1:])))


def diamond():
    return FinitePoset.from_cover_relations(
        ["bot", "l", "r", "top"],
        [["bot", "l"], ["bot", "r"], ["l", "top"], ["r", "top"]],
    )


def vee():
    # bottom with two incomparable tops: no least upper bound for {l, r}
    return FinitePoset.from_cover_relations(["bot", "l", "r"], [["bot", "l"], ["bot", "r"]])


class TestConstruction:
    def test_chain_closure(self):
        p = chain("a", "b", "c")
        assert p.holds("a", "c")
        assert not p.holds("c", "a")
        assert p.holds("b", "b")

    def test_holds_matches_relation_matrix(self):
        p = diamond()
        for i, x in enumerate(p.elements):
            for j, y in enumerate(p.elements):
                assert p.holds(x, y) is bool(p.leq[i, j])

    @pytest.mark.parametrize("pair", [("zz", "a"), ("a", "zz")])
    def test_holds_rejects_unknown_label(self, pair):
        with pytest.raises(UnknownLabelError, match="zz"):
            chain("a", "b").holds(*pair)

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            FinitePoset.from_cover_relations(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleError):
            FinitePoset.from_cover_relations(
                ["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]]
            )

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            FinitePoset.from_cover_relations(["a"], [["a", "zz"]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FinitePoset.from_cover_relations(["a", "a"], [])

    def test_constructor_accepts_a_closed_order(self):
        leq = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
        p = FinitePoset(["a", "b", "c"], leq)
        assert (p.leq == chain("a", "b", "c").leq).all()

    def test_constructor_leaves_the_callers_matrix_writable(self):
        leq = np.eye(2, dtype=bool)
        p = FinitePoset(["a", "b"], leq)
        assert leq.flags.writeable and not p.leq.flags.writeable

    @pytest.mark.parametrize(
        "elements, leq",
        [
            (["a", "b"], np.eye(3, dtype=bool)),  # shape mismatch
            (["a", "b"], [[True, True], [False, False]]),  # not reflexive
            (["a", "b", "c"], [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),  # a<b<c but not a<c
            (["a", "a"], np.eye(2, dtype=bool)),  # duplicate labels
        ],
        ids=["shape", "reflexive", "transitive", "duplicate"],
    )
    def test_constructor_rejects_non_orders(self, elements, leq):
        with pytest.raises(ValueError):
            FinitePoset(elements, leq)

    def test_constructor_rejects_mutual_pair(self):
        with pytest.raises(CycleError):
            FinitePoset(["a", "b"], np.ones((2, 2), dtype=bool))

    def test_redundant_covers_are_harmless(self):
        explicit = FinitePoset.from_cover_relations(
            ["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]
        )
        assert (explicit.leq == chain("a", "b", "c").leq).all()

    def test_cover_pairs_are_minimal(self):
        p = FinitePoset.from_cover_relations(
            ["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]
        )
        assert sorted(p.cover_pairs()) == [("a", "b"), ("b", "c")]

    def test_roundtrip_through_cover_pairs(self, rng):
        for _ in range(20):
            p = random_poset(rng, 8)
            rebuilt = FinitePoset.from_cover_relations(
                p.elements, [list(pair) for pair in p.cover_pairs()]
            )
            assert (rebuilt.leq == p.leq).all()


class TestSets:
    def test_up_down(self):
        p = chain("a", "b", "c")
        assert p.up_set("b") == {"b", "c"}
        assert p.down_set("b") == {"a", "b"}

    def test_maximal(self):
        assert diamond().maximal_elements() == {"top"}
        assert vee().maximal_elements() == {"l", "r"}

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            diamond().up_set("nope")


class TestDirectedAndSuprema:
    def test_diamond_pair_not_directed(self):
        assert not diamond().is_directed({"l", "r"})

    def test_diamond_with_top_directed(self):
        assert diamond().is_directed({"l", "r", "top"})

    def test_singleton_directed(self):
        assert diamond().is_directed({"l"})

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubsetError):
            diamond().is_directed(set())
        with pytest.raises(EmptySubsetError):
            diamond().supremum(set())

    def test_supremum_diamond(self):
        assert diamond().supremum({"l", "r"}) == "top"

    def test_supremum_missing(self):
        assert vee().supremum({"l", "r"}) is None

    def test_supremum_of_directed_subset_is_a_member(self, rng):
        # a finite directed subset contains its own supremum
        for _ in range(20):
            p = random_poset(rng, 7)
            for members, sup in p.directed_family():
                assert sup is not None
                assert sup in members

    def test_against_oracles(self, rng):
        for _ in range(15):
            p = random_poset(rng, 6)
            fam = dict(p.directed_family())
            for size in range(1, len(p.elements) + 1):
                for combo in itertools.combinations(p.elements, size):
                    expected = oracle_directed(p, combo)
                    assert p.is_directed(combo) == expected
                    if expected:
                        assert fam[frozenset(combo)] == oracle_supremum(p, combo)


    def test_long_chain_counts_do_not_wrap(self):
        # 258 elements: path counts held in uint8 would wrap past 255
        p = chain(*(f"e{i}" for i in range(258)))
        covers = p.cover_pairs()
        assert len(covers) == 257
        assert ("e0", "e257") not in covers
        assert p.is_directed(p.elements)

    def test_family_is_exactly_the_directed_subsets(self, rng):
        # nothing beyond the oracle-directed subsets, each once, with its supremum
        for _ in range(15):
            p = random_poset(rng, 7)
            family = p.directed_family()
            expected = {
                (frozenset(combo), oracle_supremum(p, combo))
                for size in range(1, len(p.elements) + 1)
                for combo in itertools.combinations(p.elements, size)
                if oracle_directed(p, combo)
            }
            assert set(family) == expected
            assert len(family) == len(expected)


class TestApproximation:
    def test_chain_way_below(self):
        p = chain("a", "b", "c")
        assert p.way_below("a", "c")
        assert p.way_below("a", "a")
        assert not p.way_below("c", "a")

    def test_matches_oracle(self, rng):
        for _ in range(10):
            p = random_poset(rng, 5)
            for x in p.elements:
                for y in p.elements:
                    assert p.way_below(x, y) == oracle_way_below(p, x, y)

    def test_collapses_to_order_on_finite_posets(self, rng):
        for _ in range(40):
            p = random_poset(rng, 10)
            assert (p.way_below_matrix() == p.leq).all()

    def test_all_elements_compact(self, rng):
        for _ in range(20):
            p = random_poset(rng, 8)
            assert p.compact_elements() == frozenset(p.elements)

    def test_wayup_waydown(self):
        p = chain("a", "b", "c")
        assert p.wayup_set("b") == {"b", "c"}
        assert p.waydown_set("b") == {"a", "b"}

    def test_size_cap(self):
        labels = [f"e{i}" for i in range(16)]
        big = FinitePoset.from_cover_relations(labels, list(zip(labels, labels[1:])))
        with pytest.raises(SizeLimitError):
            big.way_below("e0", "e1")

    def test_cap_override(self):
        p = chain("a", "b", "c", "d", "e")
        with pytest.raises(SizeLimitError):
            p.directed_family(cap=3)
        assert p.way_below("a", "e", cap=5)


class TestDcpoAndBasis:
    def test_is_dcpo(self, rng):
        ok, witness = diamond().is_dcpo()
        assert ok and witness is None
        for _ in range(20):
            p = random_poset(rng, 9)
            assert p.is_dcpo()[0]

    def test_chain_bases(self):
        p = chain("a", "b", "c")
        assert p.is_basis({"a", "b", "c"})
        assert not p.is_basis({"a"})
        assert not p.is_basis({"a", "c"})  # nothing generates b

    def test_whole_set_is_always_a_basis(self, rng):
        for _ in range(20):
            p = random_poset(rng, 8)
            assert p.is_basis(p.elements)

    def test_context_transitivity(self, rng):
        assert diamond().check_context_transitivity() == (True, None)
        for _ in range(25):
            p = random_poset(rng, 9)
            holds, counterexample = p.check_context_transitivity()
            assert holds and counterexample is None

    def test_analyze_report(self):
        report = diamond().analyze()
        assert report.is_dcpo
        assert report.maximal_elements == {"top"}
        assert report.compact_elements == {"bot", "l", "r", "top"}
        assert report.context_transitivity_holds
        assert report.counterexample is None


class TestSerialization:
    def test_dot_output(self):
        dot = chain("a", "b").to_dot()
        assert dot.startswith("digraph")
        assert "rankdir=BT;" in dot
        assert '"a" -> "b";' in dot
        assert dot.count("->") == 1

    def test_dot_quoting(self):
        p = FinitePoset.from_cover_relations(['a"x', "b"], [['a"x', "b"]])
        assert '"a\\"x"' in p.to_dot()

    def test_load_poset(self, tmp_path):
        doc = tmp_path / "p.json"
        doc.write_text('{"elements": ["a", "b"], "covers": [["a", "b"]]}')
        p = load_poset(doc)
        assert p.holds("a", "b")

    def test_malformed_documents(self):
        with pytest.raises(ValueError):
            poset_from_dict({"elements": ["a"]})
        with pytest.raises(ValueError):
            poset_from_dict({"elements": ["a"], "covers": [["a"]]})
        with pytest.raises(ValueError):
            poset_from_dict({"elements": [1], "covers": []})

    def test_covers_not_an_array(self):
        with pytest.raises(ValueError):
            poset_from_dict({"elements": ["a"], "covers": 3})

    def test_cover_entry_not_an_array(self):
        with pytest.raises(ValueError):
            poset_from_dict({"elements": ["a"], "covers": [5]})

    def test_elements_string_is_not_split(self):
        with pytest.raises(ValueError):
            poset_from_dict({"elements": "abc", "covers": [["a", "b"]]})
