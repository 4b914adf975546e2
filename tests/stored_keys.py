"""Stored-key corpus whose rendered outcomes pin how a table key is read.

The inputs are a seeded sample of the keys the P^3 and P^4 cubic cusp grids
report missing against an empty table, seeded mutations of them (a character
substituted, deleted, inserted or swapped; ``s=0`` and ``s=none`` flipped;
``h=0`` turned into ``h=1``; the family swapped; a number turned into
``none``) and a few hand-written keys. Each input renders as one line: the
input, a tab, then the key it is stored under, ``reject`` for a
``ValidationError``, or the type of any other exception.
``tests/fixtures/stored_keys.txt`` holds the lines; ``tests/test_golden.py``
compares against it. Printing the lines for another checkout:

    PYTHONPATH=src python tests/stored_keys.py > stored_keys.txt
"""
import random
import re
from functools import lru_cache

from cuspcount.cusp import CuspEngine
from cuspcount.errors import OracleDataMissingError, ValidationError
from cuspcount.nodal import _normalize_stored_key
from cuspcount.tables import TableSpec

SEED = 20261018
SAMPLED = 600
MUTATED = 2400
ALPHABET = "0123456789-;=[]cdhklnorst"
FAMILIES = ("R", "N", "S", "NR", "RR2")

HAND_WRITTEN = (
    "N;r=3;d=2;t=none;h=0;c2=5;s=0",
    "NR;r=3;d1=2;d2=1;G1=[t=0;h=0;c2=6;s=0];G2=[t=0;h=none;c2=3;s=none];c=1",
    "S;r=2;d=3;t=1;h=0;c2=6;s=0",
    "R;r=3;d=2;t=0;h=0;c2=11;s=none",
    "NR;r=3;d1=-2;d2=1;G1=[t=0;h=0;c2=6;s=0];G2=[t=0;h=0;c2=3;s=none];c=1",
    "N;r=1;d=0;t=0;h=0;c7=5;s=9",
    "N;r=3;d=0;t=0;h=0;c2=1;s=0",
    "N;r=3;d=2;t=0;h=0;c4=2;s=0",
    "N;r=3;d=2;t=0;h=0;c2=7;s=9",    # marked point beyond P^3
    "N;r=3;d=2;t=0;h=0;c2=3;s=0",    # 3 conditions where 7 are needed
    "N;r=2;d=3;t=0;h=0;c2=8;s=0",    # plane, tangency-free: a closed form
)


@lru_cache(maxsize=None)
def grid_keys():
    """Sorted keys the P^3 and P^4 cubic cusp grids lack on an empty table.

    Computed once per process: the corpus and the load-back test share it.
    """
    keys = set()
    for r in (3, 4):
        engine = CuspEngine()
        spec = TableSpec(r, 3)
        for t in range(4 * r + 4):
            for k in range(r + 1):
                delta = spec.cell_constraint(t, k)
                if delta is None:
                    continue
                try:
                    engine.count(r, 3, delta)
                except OracleDataMissingError as exc:
                    keys.update(exc.keys)
    return tuple(sorted(keys))


def _substitute(rng, key):
    i = rng.randrange(len(key))
    return key[:i] + rng.choice(ALPHABET) + key[i + 1:]


def _delete(rng, key):
    i = rng.randrange(len(key))
    return key[:i] + key[i + 1:]


def _insert(rng, key):
    i = rng.randrange(len(key) + 1)
    return key[:i] + rng.choice(ALPHABET) + key[i:]


def _swap(rng, key):
    i = rng.randrange(len(key) - 1)
    return key[:i] + key[i + 1] + key[i] + key[i + 2:]


def _replace_one(rng, key, pattern, repl):
    spots = list(re.finditer(pattern, key))
    if not spots:
        return key
    m = rng.choice(spots)
    return key[:m.start()] + repl(m.group()) + key[m.end():]


def _flip_special(rng, key):
    return _replace_one(rng, key, r"s=(none|0)\b",
                        lambda s: "s=0" if s == "s=none" else "s=none")


def _hyperplane(rng, key):
    return _replace_one(rng, key, r"h=0", lambda _: "h=1")


def _swap_family(rng, key):
    head, _, rest = key.partition(";")
    return rng.choice([f for f in FAMILIES if f != head]) + ";" + rest


def _none_count(rng, key):
    return _replace_one(rng, key, r"(?<==)[0-9]+", lambda _: "none")


MUTATIONS = (_substitute, _delete, _insert, _swap, _flip_special, _hyperplane,
             _swap_family, _none_count)


def corpus():
    rng = random.Random(SEED)
    picked = rng.sample(grid_keys(), SAMPLED)
    inputs = list(picked)
    for _ in range(MUTATED):
        inputs.append(rng.choice(MUTATIONS)(rng, rng.choice(picked)))
    inputs.extend(HAND_WRITTEN)
    return inputs


def outcome(text):
    try:
        return _normalize_stored_key(text, "corpus:1")
    except ValidationError:
        return "reject"
    except Exception as exc:  # the corpus records any other failure by type
        return type(exc).__name__


def stored_key_lines():
    for text in corpus():
        yield "%s\t%s" % (text, outcome(text))


if __name__ == "__main__":
    for line in stored_key_lines():
        print(line)
