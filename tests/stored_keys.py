"""Stored-key corpus whose rendered outcomes pin how a table key is read.

The inputs are the first column of ``tests/fixtures/stored_keys.txt``. They
were generated once, from a seeded sample of the keys the P^3 and P^4 cubic
cusp grids reported missing against an empty table, seeded mutations of
them (a character substituted, deleted, inserted or swapped; ``s=0`` and
``s=none`` flipped; ``h=0`` turned into ``h=1``; the family swapped; a number
turned into ``none``) and a few hand-written keys. They are frozen, because
a sample drawn from the engine under test changes whenever it reports other
keys; the sampler and the mutators are not kept. Each input renders as one
line: the input, a tab, then the text of the structured key it is stored
under, ``reject`` for a ``ValidationError``, or the type of any other
exception.
``tests/fixtures/stored_key_messages.txt`` holds, for each rejected input,
the input, a tab, then the ``ValidationError`` text the reader raises.
``tests/test_golden.py`` compares against both fixtures. Printing the lines
for another checkout:

    PYTHONPATH=src python tests/stored_keys.py > stored_keys.txt
    PYTHONPATH=src python tests/stored_keys.py --messages > stored_key_messages.txt
"""
import os
import sys

from cuspcount.constraints import render_key
from cuspcount.errors import ValidationError
from cuspcount.nodal import _check_stored_key

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "stored_keys.txt")


def corpus():
    with open(FIXTURE, encoding="utf-8") as fh:
        return [line.rpartition("\t")[0] for line in fh.read().splitlines()]


def outcome(text):
    try:
        key = _check_stored_key(text)
    except ValidationError:
        return "reject"
    except Exception as exc:  # the corpus records any other failure by type
        return type(exc).__name__
    return render_key(key)


def stored_key_lines():
    for text in corpus():
        yield "%s\t%s" % (text, outcome(text))


def reject_message_lines():
    for text in corpus():
        try:
            _check_stored_key(text)
        except ValidationError as exc:
            yield "%s\t%s" % (text, exc)


if __name__ == "__main__":
    lines = reject_message_lines if sys.argv[1:] == ["--messages"] else stored_key_lines
    for line in lines():
        print(line)
