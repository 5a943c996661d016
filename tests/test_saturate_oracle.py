"""The int-bitmask compile path against the set-based oracle: the same
DFA, state for state and transition for transition."""
import pytest

from freerat.automata import reduced_acceptor
from freerat.ratexpr import format_ratexpr

from oracle_saturate import CORPUS, acceptor_to_json, reduced_acceptor_json


@pytest.mark.parametrize("start", range(0, len(CORPUS), 10))
def test_reduced_acceptor_matches_set_based_oracle(start):
    for expr in CORPUS[start : start + 10]:
        dfa = reduced_acceptor(expr)
        expected = reduced_acceptor_json(expr)
        assert dfa.n_states == expected["states"], format_ratexpr(expr)
        assert acceptor_to_json(dfa) == expected, format_ratexpr(expr)
