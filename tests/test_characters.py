import math

import pytest

from hbq import (DomainError, character_from_label, characters_mod, chi_eval)
from hbq.characters import chi_table


def _phi(f):
    return sum(1 for n in range(1, f + 1) if math.gcd(n, f) == 1)


def test_counts_and_ordering():
    assert len(characters_mod(1)) == 1
    assert len(characters_mod(4)) == 2
    assert len(characters_mod(3)) == 2
    for f in range(1, 25):
        chars = characters_mod(f)
        assert len(chars) == _phi(f)
        assert chars[0].is_principal
        labels = [c.label for c in chars]
        assert labels == [f"{f}:{i}" for i in range(len(chars))]


def test_anchor_values():
    one = characters_mod(1)[0]
    assert all(chi_eval(one, n) == 1 for n in range(10))
    assert chi_eval(characters_mod(5)[0], 7) == 1          # principal on a unit
    assert chi_eval(characters_mod(4)[1], 3) == -1         # 3 generates (Z/4)*
    assert chi_eval(characters_mod(3)[1], 2) == -1         # quadratic mod 3
    for chi in characters_mod(6):
        assert chi_eval(chi, 4) == 0                       # gcd(4,6) > 1


def test_multiplicativity():
    for f in range(1, 25):
        for chi in characters_mod(f):
            exact = chi.order <= 2
            for m in range(1, 30):
                for n in range(1, 30):
                    err = abs(chi_eval(chi, m * n) - chi_eval(chi, m) * chi_eval(chi, n))
                    if exact:
                        assert err == 0.0
                    else:
                        assert err <= 1e-12


def test_orthogonality():
    for f in range(1, 25):
        for chi in characters_mod(f):
            total = sum(chi_eval(chi, a) for a in range(1, f + 1))
            if chi.is_principal:
                assert abs(total - _phi(f)) <= 1e-12
            else:
                assert abs(total) <= 1e-12


def test_periodicity_and_order():
    for f in (3, 5, 8, 12, 24):
        for chi in characters_mod(f):
            for n in range(-5, 40):
                assert chi_eval(chi, n) == chi_eval(chi, n + f)
            o = chi.order
            for n in range(1, f + 1):
                if math.gcd(n, f) == 1:
                    assert abs(chi_eval(chi, n) ** o - 1) < 1e-10


def test_labels():
    chi = character_from_label("5:2")
    assert chi.modulus == 5 and chi.index == 2
    with pytest.raises(DomainError):
        character_from_label("5:9")
    with pytest.raises(DomainError):
        character_from_label("nonsense")


def test_period_table_matches_chi_eval():
    # every series reads chi from this one cached period
    assert chi_table(None) == (1,)
    for f in range(1, 61):
        for chi in characters_mod(f):
            table = chi_table(chi)
            assert table is chi.table  # computed once per character
            assert table == tuple(chi_eval(chi, r) for r in range(f))
            if chi.order <= 2:
                # real characters stay exact: +-1 on units, 0 elsewhere
                assert all(v in (1, -1) if math.gcd(r, f) == 1 else v == 0
                           for r, v in enumerate(table))
